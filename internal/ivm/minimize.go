package ivm

import (
	"slices"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Minimize is pass 4 of the Δ-script generation algorithm: semantic
// minimization of every query in the script. It combines standard
// algebraic cleanups (merging projection and selection cascades, removing
// identity projections and TRUE selections, distributing a projection over
// the branches of a union) with the i-diff specific rewrite rules of
// Figure 8, which exploit the effectiveness constraints
//
//	C1: ∆+R ⊆ R_post
//	C2: π_Ī ∆-R ∩ π_Ī R_post = ∅
//	C3: π_Ī,Ā″post ∆uR ⋉ R_post ⊆ π_Ī,Ā″ R_post
//
// to remove joins between a diff and the post-state of its own target
// relation. Unlike general query minimization, this is polynomial: each
// rewrite inspects one operator and its direct inputs.
func Minimize(s *Script) {
	// Map binding names to their diff schemas: base diffs plus every
	// computed diff instance.
	diffs := map[string]DiffSchema{}
	for _, table := range s.Base.Tables() {
		for i, ds := range s.Base[table] {
			diffs[BaseBindName(table, i)] = ds
		}
	}
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Diff != nil {
			diffs[cs.Name] = *cs.Diff
		}
	}
	m := &minimizer{diffs: diffs}
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok {
			cs.Plan = m.rewrite(cs.Plan)
		}
	}
	s.Minimized = true
}

// MinimizePlan applies the minimizer to a standalone plan with the given
// diff bindings; exported for tests and for callers composing their own
// scripts.
func MinimizePlan(plan algebra.Node, diffs map[string]DiffSchema) algebra.Node {
	m := &minimizer{diffs: diffs}
	return m.rewrite(plan)
}

type minimizer struct {
	diffs map[string]DiffSchema
}

func (m *minimizer) rewrite(n algebra.Node) algebra.Node {
	return m.node(algebra.MapChildren(n, m.rewrite)) // bottom-up
}

// node rewrites n, whose inputs are rewritten already.
func (m *minimizer) node(n algebra.Node) algebra.Node {
	switch x := n.(type) {
	case *algebra.Select:
		child := x.Child
		if expr.IsTrueLit(x.Pred) {
			return child
		}
		if e, ok := child.(*algebra.Empty); ok {
			return e
		}
		if cs, ok := child.(*algebra.Select); ok {
			return m.node(algebra.NewSelect(cs.Child, expr.And(cs.Pred, x.Pred)))
		}
		return x

	case *algebra.Project:
		child := x.Child
		if isEmpty(child) {
			return &algebra.Empty{Sch: x.Schema()}
		}
		// Merge π(π(x)) by substituting the inner items into the outer.
		if cp, ok := child.(*algebra.Project); ok {
			sub := make(map[string]expr.Expr, len(cp.Items))
			for _, it := range cp.Items {
				sub[it.As] = it.E
			}
			items := make([]algebra.ProjItem, len(x.Items))
			for i, it := range x.Items {
				items[i] = algebra.ProjItem{E: expr.Subst(it.E, sub), As: it.As}
			}
			return m.node(algebra.NewProject(cp.Child, items))
		}
		// Identity projection removal.
		cs := child.Schema()
		if len(x.Items) == len(cs.Attrs) {
			identity := true
			for i, it := range x.Items {
				c, ok := it.E.(expr.Col)
				if !ok || c.Name != cs.Attrs[i] || it.As != cs.Attrs[i] {
					identity = false
					break
				}
			}
			if identity {
				return child
			}
		}
		// Distribute π over a ∪all whose branch attribute it does not read:
		// in each branch it merges with the branch's own π (above), and a
		// tagged union loses its branch column.
		if u, ok := child.(*algebra.UnionAll); ok && !slices.ContainsFunc(x.Items, func(it algebra.ProjItem) bool {
			return slices.Contains(it.E.Cols(), u.BranchAttr)
		}) {
			branches := make([]algebra.Node, len(u.Branches))
			for i, b := range u.Branches {
				branches[i] = m.node(algebra.NewProject(b, x.Items))
			}
			return algebra.NewUnionAll("", branches...)
		}
		return x

	case *algebra.Join:
		l, r := x.Left, x.Right
		if isEmpty(l) || isEmpty(r) {
			return &algebra.Empty{Sch: x.Schema()}
		}
		// Figure 8 (join block): a delete diff joined on its own IDs with
		// its target's post-state is empty (C2); insert/update diffs
		// joined on their full IDs with the post-state reduce to the diff
		// (C1/C3) — only applicable when the join adds no new columns,
		// which is the semijoin-like full-key case handled below.
		if m.deleteDiffVsOwnPost(l, r, x.Pred) || m.deleteDiffVsOwnPost(r, l, x.Pred) {
			return &algebra.Empty{Sch: x.Schema()}
		}
		// ∆+R ⋈Ī R_post → π(∆+R): the joined-back columns are all present
		// in the insert diff (C1), so the base access vanishes.
		if out, ok := m.insertJoinOwnPost(l, r, x.Pred, true); ok {
			return m.rewrite(out)
		}
		if out, ok := m.insertJoinOwnPost(r, l, x.Pred, false); ok {
			return m.rewrite(out)
		}
		return linearizeJoin(x)

	case *algebra.SemiJoin:
		l, r := x.Left, x.Right
		if isEmpty(l) {
			return &algebra.Empty{Sch: x.Schema()}
		}
		// Nothing matches an empty right side, nor (C2) does a delete diff
		// its own target's post-state: ∆-R ⋉ σφ(R_post) → ∅ and
		// ∆-R ▷ σφ(R_post) → ∆-R.
		if isEmpty(r) || m.deleteDiffVsOwnPost(l, r, x.Pred) {
			if x.Anti {
				return l
			}
			return &algebra.Empty{Sch: x.Schema()}
		}
		// ∆+R ⋉ σφ(R_post) → σφ(post)(∆+R) and
		// ∆+R ▷ σφ(R_post) → σ¬φ(post)(∆+R)  (C1)
		if out, ok := m.diffSemiOwnPost(l, r, x.Pred, !x.Anti); ok {
			return m.rewrite(out)
		}
		return x
	}
	return n
}

func isEmpty(n algebra.Node) bool {
	_, ok := n.(*algebra.Empty)
	return ok
}

// diffLeaf recognizes a plan that is a (possibly Select-wrapped) reference
// to a diff instance, returning the diff schema and the accumulated
// selection predicate.
func (m *minimizer) diffLeaf(n algebra.Node) (DiffSchema, expr.Expr, *algebra.RelRef, bool) {
	pred := expr.True()
	for {
		if s, ok := n.(*algebra.Select); ok {
			pred = expr.And(pred, s.Pred)
			n = s.Child
			continue
		}
		break
	}
	ref, ok := n.(*algebra.RelRef)
	if !ok || ref.Stored {
		return DiffSchema{}, nil, nil, false
	}
	ds, ok := m.diffs[ref.Name]
	if !ok {
		return DiffSchema{}, nil, nil, false
	}
	return ds, pred, ref, true
}

// ownPost recognizes a plan that reads the post-state of the relation a
// diff is over: a Scan or stored RelRef of that relation, possibly under
// selections; it returns the accumulated predicate.
func ownPost(n algebra.Node, relName string) (expr.Expr, bool) {
	pred := expr.True()
	for {
		if s, ok := n.(*algebra.Select); ok {
			pred = expr.And(pred, s.Pred)
			n = s.Child
			continue
		}
		break
	}
	switch x := n.(type) {
	case *algebra.Scan:
		if x.Table == relName && x.St == rel.StatePost {
			return pred, true
		}
	case *algebra.RelRef:
		if x.Stored && x.Name == relName && x.St == rel.StatePost {
			return pred, true
		}
	}
	return nil, false
}

// fullIDEquality reports whether pred is exactly an equality of the diff's
// full ID set against the corresponding target columns (possibly with a
// rename suffix applied to one side), i.e. the join pairs tuples with
// their own diff entries.
func fullIDEquality(pred expr.Expr, ids []string) bool {
	conj := expr.Conjuncts(pred)
	if len(conj) != len(ids) {
		return false
	}
	matched := map[string]bool{}
	for _, c := range conj {
		cmp, ok := c.(expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			return false
		}
		lc, lok := cmp.L.(expr.Col)
		rc, rok := cmp.R.(expr.Col)
		if !lok || !rok {
			return false
		}
		for _, id := range ids {
			if (baseOf(lc.Name) == baseOf(id) && baseOf(rc.Name) == baseOf(id)) ||
				(lc.Name == id || rc.Name == id) {
				matched[id] = true
			}
		}
	}
	return len(matched) == len(ids)
}

// baseOf strips a rename suffix introduced by the rule engine ("@…").
func baseOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '@' {
			return name[:i]
		}
	}
	return name
}

// deleteDiffVsOwnPost detects the C2 patterns of Figure 8: a delete diff
// combined with its own relation's post-state on the diff's IDs.
func (m *minimizer) deleteDiffVsOwnPost(d, other algebra.Node, pred expr.Expr) bool {
	ds, _, _, ok := m.diffLeaf(d)
	if !ok || ds.Type != DiffDelete {
		return false
	}
	if _, ok := ownPost(other, ds.Rel); !ok {
		return false
	}
	return fullIDEquality(pred, ds.IDs)
}

// insertJoinOwnPost implements Figure 8's join block for insert diffs:
// when an insert diff over R is joined on R's full IDs with R's own
// post-state (under an optional selection φ), every joined-in column is
// already in the diff (constraint C1: ∆+R ⊆ R_post), so the join reduces
// to a projection over the (optionally φ-filtered) diff. diffOnLeft
// records which side carried the diff, to emit columns in join order.
func (m *minimizer) insertJoinOwnPost(d, other algebra.Node, pred expr.Expr, diffOnLeft bool) (algebra.Node, bool) {
	ds, dPred, ref, ok := m.diffLeaf(d)
	if !ok || ds.Type != DiffInsert {
		return nil, false
	}
	phi, ok := ownPost(other, ds.Rel)
	if !ok || !fullIDEquality(pred, ds.IDs) {
		return nil, false
	}
	// The scanned side's columns must be reconstructible from the diff:
	// its bare attributes must match the diff's IDs+post set.
	oSchema := other.Schema()
	srcFor := func(attr string) (string, bool) {
		_, bare := rel.BaseAttr(attr)
		if rel.Contains(ds.IDs, bare) {
			return bare, true
		}
		if rel.Contains(ds.Post, bare) {
			return PostName(bare), true
		}
		return "", false
	}
	var oItems []algebra.ProjItem
	for _, a := range oSchema.Attrs {
		src, ok := srcFor(a)
		if !ok {
			return nil, false
		}
		oItems = append(oItems, algebra.ProjItem{E: expr.C(src), As: a})
	}
	// φ over the scanned side must be evaluable on the diff's post state.
	phiMap := map[string]string{}
	for _, c := range phi.Cols() {
		src, ok := srcFor(c)
		if !ok {
			return nil, false
		}
		phiMap[c] = src
	}

	var plan algebra.Node = ref
	if !expr.IsTrueLit(dPred) {
		plan = algebra.NewSelect(plan, dPred)
	}
	if !expr.IsTrueLit(phi) {
		plan = algebra.NewSelect(plan, expr.Rename(phi, phiMap))
	}
	// Emit the join's output columns in order: the diff's own columns plus
	// the reconstructed scan columns.
	diffSch := ref.Schema()
	var items []algebra.ProjItem
	appendDiffCols := func() {
		for _, a := range diffSch.Attrs {
			items = append(items, algebra.ProjItem{E: expr.C(a), As: a})
		}
	}
	if diffOnLeft {
		appendDiffCols()
		items = append(items, oItems...)
	} else {
		items = append(items, oItems...)
		appendDiffCols()
	}
	return algebra.NewProject(plan, items), true
}

// diffSemiOwnPost rewrites ∆+R (or a full-post update diff) semijoined /
// antijoined with σφ(R_post) on the full IDs into a selection over the
// diff itself (Figure 8, C1/C3): semijoin keeps σφ(post), antijoin keeps
// σ¬φ(post).
func (m *minimizer) diffSemiOwnPost(d, other algebra.Node, pred expr.Expr, semi bool) (algebra.Node, bool) {
	ds, dPred, ref, ok := m.diffLeaf(d)
	if !ok {
		return nil, false
	}
	if ds.Type != DiffInsert {
		// C3 applies to update diffs only when the filter's columns are all
		// updated (Ā″ covers X̄); to stay conservative we require an insert.
		return nil, false
	}
	phi, ok := ownPost(other, ds.Rel)
	if !ok || !fullIDEquality(pred, ds.IDs) {
		return nil, false
	}
	if !canEvalPost(phi, ds) {
		return nil, false
	}
	post := expr.Rename(phi, postMap(ds))
	if !semi {
		post = expr.Not(post)
	}
	var out algebra.Node = ref
	if !expr.IsTrueLit(dPred) {
		out = algebra.NewSelect(out, dPred)
	}
	if !expr.IsTrueLit(post) {
		out = algebra.NewSelect(out, post)
	}
	return out, true
}
