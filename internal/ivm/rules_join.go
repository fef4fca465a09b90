package ivm

import (
	"fmt"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// joinRules implements the i-diff propagation rules for the theta-join
// (Table 10) and, with Pred == TRUE, the cross product (Table 4).
//
// The headline i-diff optimization lives here: an update diff whose
// attributes do not participate in the join condition passes through the
// operator *unchanged*, still identifying view tuples by the diff's own
// (partial) ID set — no join with the other input is performed. In tuple
// mode the same rule instead joins the diff with the other input to widen
// it to full view tuples, which is exactly the Q_D computation of prior
// tuple-based IVM (Example 1.2).
func (g *gen) joinRules(op *algebra.Join, in decl, fromLeft bool, li, ri inputFn) ([]decl, error) {
	ds := in.schema
	dChild, oChild, oInput, dInput := op.Left, op.Right, ri, li
	if !fromLeft {
		dChild, oChild, oInput, dInput = op.Right, op.Left, li, ri
	}
	dAttrs := dChild.Schema().Attrs
	outSchema := op.Schema()
	pred := op.Pred

	// join joins dPlan with the other input in state st on p, in the
	// operator's original child order so output columns line up with the
	// out schema.
	join := func(dPlan algebra.Node, st rel.State, p expr.Expr) algebra.Node {
		if fromLeft {
			return algebra.NewJoin(dPlan, oInput(st), p)
		}
		return algebra.NewJoin(oInput(st), dPlan, p)
	}
	// matches is the join of the diff's st-images with the other input.
	matches := func(st rel.State) algebra.Node {
		return join(reconstructOrWiden(in, dInput, dAttrs, st), st, pred)
	}

	// dOnly is the part of the predicate referencing only the diff side.
	var dOnlyTerms []expr.Expr
	for _, c := range expr.Conjuncts(pred) {
		if subsetOf(c.Cols(), dAttrs) {
			dOnlyTerms = append(dOnlyTerms, c)
		}
	}
	dOnly := expr.And(dOnlyTerms...)

	switch ds.Type {
	case DiffInsert:
		// ∆+V = ∆+ ⋈φ Other_post (Table 10).
		return []decl{insertOf(ds.Rel, outSchema, join(reconstruct(in, dAttrs, rel.StatePost), rel.StatePost, pred))}, nil

	case DiffDelete:
		if g.tupleMode {
			// Tuple mode: widen to full view tuples by joining with the
			// other input's pre-state.
			return []decl{deleteOf(ds.Rel, outSchema, matches(rel.StatePre), true)}, nil
		}
		// ID mode: pass through (∆-V = ∆-, Table 10), filtered by the
		// diff-side-only predicate when evaluable. Dummy deletions for
		// tuples that never joined are the overestimation of Section 4.
		if !expr.IsTrueLit(dOnly) && canEvalPre(dOnly, ds) {
			return []decl{{schema: ds, plan: filterPre(in, dOnly)}}, nil
		}
		return []decl{in}, nil

	case DiffUpdate:
		dCond := rel.Intersect(pred.Cols(), dAttrs)
		touched := len(rel.Intersect(dCond, ds.Post)) > 0

		if !touched {
			if g.tupleMode {
				// The predicate's diff-side columns are read from the
				// diff's columns; condition attributes are untouched so
				// post falls back to pre values for them.
				j := join(in.plan, rel.StatePost, expr.Rename(pred, postMap(ds)))
				return joinWidenUpdate(ds, outSchema.Key, oChild.Schema(), j), nil
			}
			// The i-diff fast path: propagate unchanged. ∆u ⋈ R → ∆u.
			if !expr.IsTrueLit(dOnly) && canEvalPre(dOnly, ds) {
				return []decl{{schema: ds, plan: filterPre(in, dOnly)}}, nil
			}
			return []decl{in}, nil
		}
		return joinCondUpdate(ds, outSchema, matches), nil
	}
	return nil, fmt.Errorf("ivm: join rules: unknown diff type")
}

// joinWidenUpdate is the tuple-mode update rule for condition-untouched
// attributes: j, the diff joined with the other input (post-state), names
// each view tuple by its full ID.
func joinWidenUpdate(ds DiffSchema, outKey []string, oSchema rel.Schema, j algebra.Node) []decl {
	// The widened t-diff carries the other side's values too (they are
	// unchanged, so their post equals their pre), keeping downstream
	// operators able to reconstruct full tuples.
	pre := rel.Union(ds.Pre, rel.Minus(oSchema.Attrs, outKey))
	outDS := DiffSchema{Type: DiffUpdate, Rel: ds.Rel, IDs: outKey, Pre: pre, Post: ds.Post}
	return []decl{{schema: outDS, plan: toDiff(j, outDS, nil)}}
}

// joinCondUpdate handles updates that touch join-condition attributes: the
// pre- and post-state match sets are computed against the other input and
// classified into leaving (∆-), entering (∆+) and persisting (∆u) pairs.
func joinCondUpdate(ds DiffSchema, outSchema rel.Schema, matches func(rel.State) algebra.Node) []decl {
	del, ins, upd := transitions(ds, outSchema, matches(rel.StatePre), matches(rel.StatePost), true)
	return []decl{del, ins, upd}
}

// semiRules implements the rules for semijoin and antisemijoin (Table 13
// covers the antisemijoin, the semijoin is its dual). The output schema is
// the left child's schema, so only left-side diffs carry values;
// right-side diffs change membership.
func (g *gen) semiRules(op *algebra.SemiJoin, in decl, fromLeft bool, li, ri inputFn) ([]decl, error) {
	if fromLeft {
		return g.semiLeftRules(op, in, li, ri)
	}
	return g.semiRightRules(op, in, li, ri)
}

func (g *gen) semiLeftRules(op *algebra.SemiJoin, in decl, li, ri inputFn) ([]decl, error) {
	ds := in.schema
	lSchema := op.Left.Schema()
	lAttrs := lSchema.Attrs
	lKey := lSchema.Key

	// member keeps the tuples of dPlan that belong to the output in state st.
	member := func(dPlan algebra.Node, st rel.State) algebra.Node {
		m := algebra.NewSemiJoin(dPlan, ri(st), op.Pred)
		m.Anti = op.Anti
		return m
	}

	switch ds.Type {
	case DiffInsert:
		return []decl{insertOf(ds.Rel, lSchema, member(reconstruct(in, lAttrs, rel.StatePost), rel.StatePost))}, nil

	case DiffDelete:
		if g.tupleMode {
			// Exact tuple-mode deletion: only tuples that were members.
			rec := reconstructOrWiden(in, li, lAttrs, rel.StatePre)
			return []decl{deleteOf(ds.Rel, lSchema, member(rec, rel.StatePre), true)}, nil
		}
		// Pass through with overestimation (∆-V = ∆-, Table 13).
		return []decl{in}, nil

	case DiffUpdate:
		dCond := rel.Intersect(op.Pred.Cols(), lAttrs)
		touched := len(rel.Intersect(dCond, ds.Post)) > 0
		if !touched {
			if g.tupleMode {
				// Exact tuple-mode update: keep only diff tuples whose
				// pre-image was a member. The diff's IDs already form the
				// full left key in tuple mode.
				rec := reconstructOrWiden(in, li, lAttrs, rel.StatePre)
				keys := renameAll(member(rec, rel.StatePre), "@m")
				outDS := DiffSchema{Type: DiffUpdate, Rel: ds.Rel, IDs: lKey, Pre: ds.Pre, Post: ds.Post}
				return []decl{{schema: outDS, plan: algebra.NewSemiJoin(in.plan,
					algebra.Keep(keys, suffixed(lKey, "@m")...), idEq(lKey, "@m"))}}, nil
			}
			// Membership unchanged: pass through (∆uV = ∆u, Table 13).
			return []decl{in}, nil
		}
		// Condition attributes updated: classify membership transitions.
		del, ins, upd := transitions(ds, lSchema,
			member(reconstructOrWiden(in, li, lAttrs, rel.StatePre), rel.StatePre),
			member(reconstructOrWiden(in, li, lAttrs, rel.StatePost), rel.StatePost), true)
		return []decl{upd, ins, del}, nil
	}
	return nil, fmt.Errorf("ivm: semijoin rules: unknown diff type")
}

// semiRightRules handles diffs arriving on the right (filtering) input of
// a semijoin/antisemijoin: they only move left tuples in or out of the
// view (the ∆_Inputr rules of Table 13). A right insert makes left tuples
// gain a match, a right delete makes some lose their last one, and an
// update that touches the condition does both, as a delete of its
// pre-image and an insert of its post-image. The gaining tuples enter a
// semijoin (overestimated: APPLY skips those already present) and leave an
// antisemijoin (Table 13: ∆-V = π_Ī(Input_l^post ⋉φ ∆+_Inputr)); the
// losing ones leave a semijoin and re-enter an antisemijoin.
func (g *gen) semiRightRules(op *algebra.SemiJoin, in decl, li, ri inputFn) ([]decl, error) {
	ds := in.schema
	rAttrs := op.Right.Schema().Attrs
	// gain(st) = left tuples (post-state) with a φ-match among the diff's
	// st-images; lose(st) = those of them with no φ-match left at all.
	gain := func(st rel.State) algebra.Node {
		return algebra.NewSemiJoin(li(rel.StatePost), reconstructOrWiden(in, ri, rAttrs, st), op.Pred)
	}
	lose := func(st rel.State) algebra.Node {
		return algebra.NewAntiJoin(gain(st), ri(rel.StatePost), op.Pred)
	}

	var gaining, losing algebra.Node
	switch ds.Type {
	case DiffInsert:
		gaining = gain(rel.StatePost)
	case DiffDelete:
		losing = lose(rel.StatePre)
	case DiffUpdate:
		if len(rel.Intersect(rel.Intersect(op.Pred.Cols(), rAttrs), ds.Post)) == 0 {
			return nil, nil // "not triggered": matches unchanged
		}
		losing, gaining = lose(rel.StatePre), gain(rel.StatePost)
	default:
		return nil, fmt.Errorf("ivm: semijoin right rules: unknown diff type")
	}
	entering, leaving := gaining, losing
	if op.Anti {
		entering, leaving = losing, gaining
	}
	lSchema := op.Left.Schema()
	var outs []decl
	if leaving != nil {
		outs = append(outs, deleteOf(ds.Rel, lSchema, leaving, false))
	}
	if entering != nil {
		outs = append(outs, insertOf(ds.Rel, lSchema, entering))
	}
	return outs, nil
}

// suffixed returns each name with the suffix appended.
func suffixed(names []string, sfx string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + sfx
	}
	return out
}
