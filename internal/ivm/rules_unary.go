package ivm

import (
	"fmt"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// selectRules implements the i-diff propagation rules for σφ (Table 6).
//
// The fast paths filter the diff itself using its pre/post columns; when
// the diff lacks the needed columns the rules either pass the diff through
// unfiltered (the overestimation of Example 4.8, for deletes and updates
// not touching φ) or fall back to consulting Input_pre/Input_post.
func (g *gen) selectRules(op *algebra.Select, in decl, input inputFn) ([]decl, error) {
	pred := op.Pred
	ds := in.schema
	childSchema := op.Child.Schema()

	switch ds.Type {
	case DiffInsert:
		// ∆+V = σφ(X̄post) ∆+
		return []decl{{schema: ds, plan: filterPost(in, pred)}}, nil

	case DiffDelete:
		// ∆-V = σφ(X̄pre) ∆-  (blue variant), else pass through unfiltered.
		if canEvalPre(pred, ds) {
			return []decl{{schema: ds, plan: filterPre(in, pred)}}, nil
		}
		return []decl{in}, nil

	case DiffUpdate:
		touched := len(rel.Intersect(pred.Cols(), ds.Post)) > 0
		if !touched {
			// Condition attributes unaffected: membership is unchanged, so
			// the update passes through, filtered by φ(pre) when possible.
			if canEvalPre(pred, ds) {
				return []decl{{schema: ds, plan: filterPre(in, pred)}}, nil
			}
			return []decl{in}, nil
		}

		if canEvalPre(pred, ds) && canEvalPost(pred, ds) {
			return selectUpdateFast(in, pred, childSchema, input), nil
		}
		return selectUpdateFallback(in, pred, childSchema, input), nil
	}
	return nil, fmt.Errorf("ivm: select rules: unknown diff type")
}

// selectUpdateFast handles updates touching φ when the diff carries every
// needed pre/post column: the staying, entering and leaving tuples are all
// computed from the diff alone — except that an entering tuple's other
// attributes, when the diff does not carry them, come from Input_post.
func selectUpdateFast(in decl, pred expr.Expr, childSchema rel.Schema, input inputFn) []decl {
	ds := in.schema
	prePred := expr.Rename(pred, preMap(ds))
	postPred := expr.Rename(pred, postMap(ds))

	// Entering tuples: ¬φ(pre) ∧ φ(post) → insert (needs full post tuples).
	entering := algebra.NewSelect(in.plan, expr.And(expr.Not(prePred), postPred))
	var full algebra.Node
	if canReconstruct(in, childSchema.Attrs, rel.StatePost) {
		full = reconstruct(decl{schema: ds, plan: entering}, childSchema.Attrs, rel.StatePost)
	} else {
		full = algebra.NewSemiJoin(input(rel.StatePost), renameAll(algebra.Keep(entering, ds.IDs...), "@k"), idEq(ds.IDs, "@k"))
	}
	// Leaving tuples: φ(pre) ∧ ¬φ(post) → delete.
	leaving := algebra.NewSelect(in.plan, expr.And(prePred, expr.Not(postPred)))
	delDS := DiffSchema{Type: DiffDelete, Rel: ds.Rel, IDs: ds.IDs, Pre: ds.Pre}
	return []decl{
		// Staying tuples: φ(pre) ∧ φ(post) → update.
		{schema: ds, plan: algebra.NewSelect(in.plan, expr.And(prePred, postPred))},
		insertOf(ds.Rel, childSchema, full),
		{schema: delDS, plan: toDiff(leaving, delDS, nil)},
	}
}

// selectUpdateFallback handles updates touching φ when the diff lacks the
// columns to evaluate φ: it consults the operator's input in pre- and
// post-state (the non-blue variants of Table 6). Its deletes carry IDs
// only.
func selectUpdateFallback(in decl, pred expr.Expr, childSchema rel.Schema, input inputFn) []decl {
	ids := in.schema.IDs
	keys := algebra.Keep(in.plan, ids...)
	// affected(st) = the input tuples the diff names that satisfy φ in st.
	affected := func(st rel.State, sfx string) algebra.Node {
		return algebra.NewSelect(
			algebra.NewSemiJoin(input(st), renameAll(keys, sfx), idEq(ids, sfx)),
			pred)
	}
	del, ins, upd := transitions(in.schema, childSchema,
		affected(rel.StatePre, "@k1"), affected(rel.StatePost, "@k2"), false)
	return []decl{ins, del, upd}
}

// mapIDs maps child-side ID names through a projection's key mapping.
func mapIDs(ids []string, km map[string]string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = km[id]
	}
	return out
}

// idItems are the projection items passing ids through the key mapping km.
func idItems(ids []string, km map[string]string) []algebra.ProjItem {
	items := make([]algebra.ProjItem, len(ids))
	for i, id := range ids {
		items[i] = algebra.ProjItem{E: expr.C(id), As: km[id]}
	}
	return items
}

// projectRules implements the rules for the generalized projection
// πD̄,f(X̄)→c (Table 8). Pass 1 guarantees the child's IDs survive as
// pass-through items.
func (g *gen) projectRules(op *algebra.Project, in decl, input inputFn) ([]decl, error) {
	ds := in.schema
	outSchema := op.Schema()
	outIDs := outSchema.Key
	// km maps each child key attribute to its (possibly renamed) output
	// column; pass 1 guarantees the mapping exists.
	km := op.KeyMapping()
	if km == nil {
		return nil, fmt.Errorf("ivm: projection lost its child's IDs (run pass 1 first)")
	}

	// Classify items: pass-through IDs vs computed/value columns.
	type item struct {
		as string
		e  expr.Expr
	}
	var valueItems []item
	for _, it := range op.Items {
		if rel.Contains(outIDs, it.As) {
			continue
		}
		valueItems = append(valueItems, item{as: it.As, e: it.E})
	}

	switch ds.Type {
	case DiffInsert:
		// The column order of outDS.RelSchema: IDs, then the posts in
		// valueItems order.
		pm := postMap(ds)
		outDS := DiffSchema{Type: DiffInsert, Rel: ds.Rel, IDs: outIDs}
		items := idItems(op.Child.Schema().Key, km)
		for _, vi := range valueItems {
			outDS.Post = append(outDS.Post, vi.as)
			items = append(items, algebra.ProjItem{E: expr.Rename(vi.e, pm), As: PostName(vi.as)})
		}
		return []decl{{schema: outDS, plan: algebra.NewProject(in.plan, items)}}, nil

	case DiffDelete, DiffUpdate:
		// The pre values of every item the diff's pre columns compute.
		pm := preMap(ds)
		outDS := DiffSchema{Type: ds.Type, Rel: ds.Rel, IDs: mapIDs(ds.IDs, km)}
		items := idItems(ds.IDs, km)
		for _, vi := range valueItems {
			if colsAvailable(vi.e.Cols(), ds, pm) {
				outDS.Pre = append(outDS.Pre, vi.as)
				items = append(items, algebra.ProjItem{E: expr.Rename(vi.e, pm), As: PreName(vi.as)})
			}
		}
		if ds.Type == DiffDelete {
			return []decl{{schema: outDS, plan: algebra.NewProject(in.plan, items)}}, nil
		}
		qm := postMap(ds)
		// Split the affected output columns: items computable from the diff
		// alone keep the compressed partial-ID update (their values are
		// functionally determined by the diff's IDs); items mixing in
		// columns the diff does not carry — e.g. price×qty where only the
		// price side changed — are NOT determined by the diff's IDs, so
		// they need full-child-ID updates built via Input_post ⋉Ī ∆u
		// (Table 8's non-blue variant).
		var own, mixed []item
		for _, vi := range valueItems {
			if len(rel.Intersect(vi.e.Cols(), ds.Post)) == 0 {
				continue // output column unaffected by this update
			}
			if colsAvailable(vi.e.Cols(), ds, qm) {
				own = append(own, vi)
			} else {
				mixed = append(mixed, vi)
			}
		}
		if len(own) == 0 && len(mixed) == 0 {
			return nil, nil // the update does not affect this projection
		}
		var outs []decl
		if len(mixed) > 0 {
			childKey := op.Child.Schema().Key
			var needed []string
			for _, vi := range mixed {
				needed = rel.Union(needed, vi.e.Cols())
			}
			needed = rel.Union(needed, childKey)
			src := widenReconstruct(in, input, needed, rel.StatePost)
			wDS := DiffSchema{Type: DiffUpdate, Rel: ds.Rel, IDs: mapIDs(childKey, km)}
			wItems := idItems(childKey, km)
			for _, vi := range mixed {
				wDS.Post = append(wDS.Post, vi.as)
				wItems = append(wItems, algebra.ProjItem{E: vi.e, As: PostName(vi.as)})
			}
			outs = append(outs, decl{schema: wDS, plan: algebra.NewProject(src, wItems)})
		}
		if len(own) == 0 {
			return outs, nil
		}
		for _, vi := range own {
			outDS.Post = append(outDS.Post, vi.as)
			items = append(items, algebra.ProjItem{E: expr.Rename(vi.e, qm), As: PostName(vi.as)})
		}
		plan := algebra.Node(algebra.NewProject(in.plan, items))
		// σ_isupd: drop tuples whose projected post values equal their pre
		// values (Table 8) — e.g. abs(x) unchanged by x → -x.
		if guard, ok := changeGuard(outDS); ok {
			plan = algebra.NewSelect(plan, guard)
		}
		outs = append(outs, decl{schema: outDS, plan: plan})
		return outs, nil
	}
	return nil, fmt.Errorf("ivm: project rules: unknown diff type")
}

// unionRules implements the rules for the special union all operator
// (Table 5): diffs pass through with the branch attribute appended to
// their IDs.
func (g *gen) unionRules(op *algebra.UnionAll, in decl, branch int64) decl {
	ds := in.schema
	if ds.Type == DiffInsert {
		// Insert diffs must carry the union's full key (every branch's IDs
		// plus the branch attribute); reconstruct the branch tuple, tag the
		// branch, and relabel.
		childAttrs := op.Branches[branch].Schema().Attrs
		rec := reconstruct(in, childAttrs, rel.StatePost)
		var items []algebra.ProjItem
		for _, a := range childAttrs {
			items = append(items, algebra.ProjItem{E: expr.C(a), As: a})
		}
		items = append(items, algebra.ProjItem{E: expr.IntLit(branch), As: op.BranchAttr})
		return insertOf(ds.Rel, op.Schema(), algebra.NewProject(rec, items))
	}
	outDS := DiffSchema{
		Type: ds.Type,
		Rel:  ds.Rel,
		IDs:  append(append([]string(nil), ds.IDs...), op.BranchAttr),
		Pre:  ds.Pre,
		Post: ds.Post,
	}
	var items []algebra.ProjItem
	for _, id := range ds.IDs {
		items = append(items, algebra.ProjItem{E: expr.C(id), As: id})
	}
	items = append(items, algebra.ProjItem{E: expr.IntLit(branch), As: op.BranchAttr})
	for _, a := range ds.Pre {
		items = append(items, algebra.ProjItem{E: expr.C(PreName(a)), As: PreName(a)})
	}
	for _, a := range ds.Post {
		items = append(items, algebra.ProjItem{E: expr.C(PostName(a)), As: PostName(a)})
	}
	return decl{schema: outDS, plan: algebra.NewProject(in.plan, items)}
}
