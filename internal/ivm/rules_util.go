package ivm

import (
	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// decl is a symbolic i-diff over the output of a plan node: the diff's
// schema plus an algebra plan that evaluates to its instance. Plans are
// composed bottom-up (pass 3) by inlining child diff plans as subtrees.
type decl struct {
	schema DiffSchema
	plan   algebra.Node
}

// inputFn supplies the subview rooted at a child operator in the requested
// state (the Input_pre / Input_post keywords of Section 4). Depending on
// materialization decisions it is either a stored reference to a cache or
// a recompute plan over the base tables.
type inputFn func(st rel.State) algebra.Node

// recomputeInput builds an inputFn that recomputes the subview from base
// tables in the requested state.
func recomputeInput(n algebra.Node) inputFn {
	return func(st rel.State) algebra.Node { return algebra.WithState(n, st) }
}

// storedInput builds an inputFn referencing a materialized cache or view.
func storedInput(name string, schema rel.Schema) inputFn {
	return func(st rel.State) algebra.Node { return algebra.NewStoredRef(name, schema, st) }
}

// preMap returns the rename map from the target relation's attribute names
// to the diff relation's pre-state column names: a → a#pre for carried
// pre attributes, IDs stay plain.
func preMap(ds DiffSchema) map[string]string {
	m := make(map[string]string, len(ds.Pre))
	for _, a := range ds.Pre {
		m[a] = PreName(a)
	}
	return m
}

// postMap returns the rename map to post-state columns: a → a#post for
// updated attributes; untouched attributes fall back to their pre-state
// value (the diff asserts nothing changed them), IDs stay plain.
func postMap(ds DiffSchema) map[string]string {
	m := make(map[string]string, len(ds.Pre)+len(ds.Post))
	for _, a := range ds.Pre {
		if !rel.Contains(ds.Post, a) {
			m[a] = PreName(a)
		}
	}
	for _, a := range ds.Post {
		m[a] = PostName(a)
	}
	return m
}

// colsAvailable reports whether every col is an ID or mapped by m.
func colsAvailable(cols []string, ds DiffSchema, m map[string]string) bool {
	for _, c := range cols {
		if rel.Contains(ds.IDs, c) {
			continue
		}
		if _, ok := m[c]; !ok {
			return false
		}
	}
	return true
}

// canEvalPre reports whether pred can be evaluated over the diff's
// pre-state columns.
func canEvalPre(pred expr.Expr, ds DiffSchema) bool {
	return colsAvailable(pred.Cols(), ds, preMap(ds))
}

// canEvalPost reports whether pred can be evaluated over the diff's
// post-state columns (with pre fallback for untouched attributes).
func canEvalPost(pred expr.Expr, ds DiffSchema) bool {
	if ds.Type == DiffDelete {
		return false
	}
	return colsAvailable(pred.Cols(), ds, postMap(ds))
}

// filterPre returns σ(pred over pre columns)(plan).
func filterPre(d decl, pred expr.Expr) algebra.Node {
	return algebra.NewSelect(d.plan, expr.Rename(pred, preMap(d.schema)))
}

// filterPost returns σ(pred over post columns)(plan).
func filterPost(d decl, pred expr.Expr) algebra.Node {
	return algebra.NewSelect(d.plan, expr.Rename(pred, postMap(d.schema)))
}

// canReconstruct reports whether the diff carries enough columns to
// rebuild full target-relation tuples in the given state.
func canReconstruct(d decl, attrs []string, st rel.State) bool {
	ds := d.schema
	if st == rel.StatePre {
		if ds.Type == DiffInsert {
			return false
		}
		return colsAvailable(attrs, ds, preMap(ds))
	}
	if ds.Type == DiffDelete {
		return false
	}
	return colsAvailable(attrs, ds, postMap(ds))
}

// reconstruct builds a projection producing full target-relation tuples
// (plain attribute names) from the diff plan, in the given state. Callers
// must check canReconstruct first.
func reconstruct(d decl, attrs []string, st rel.State) algebra.Node {
	ds := d.schema
	var m map[string]string
	if st == rel.StatePre {
		m = preMap(ds)
	} else {
		m = postMap(ds)
	}
	items := make([]algebra.ProjItem, len(attrs))
	for i, a := range attrs {
		src := a
		if !rel.Contains(ds.IDs, a) {
			src = m[a]
		}
		items[i] = algebra.ProjItem{E: expr.C(src), As: a}
	}
	return algebra.NewProject(d.plan, items)
}

// toDiff builds a projection converting a plan into the diff-relation
// layout of ds. Each diff column's source is chosen as: the src override
// if given, else a column of the plan already carrying the diff-convention
// name (a#pre / a#post), else the plain column a. This lets the same
// helper serve plans over reconstructed plain tuples and plans mixing
// diff columns with joined-in plain columns.
func toDiff(plan algebra.Node, ds DiffSchema, src map[string]string) algebra.Node {
	sch := plan.Schema()
	pick := func(diffCol, plain string) expr.Expr {
		if src != nil {
			if s, ok := src[diffCol]; ok {
				return expr.C(s)
			}
		}
		if diffCol != plain && sch.Has(diffCol) {
			return expr.C(diffCol)
		}
		return expr.C(plain)
	}
	var items []algebra.ProjItem
	for _, a := range ds.IDs {
		items = append(items, algebra.ProjItem{E: pick(a, a), As: a})
	}
	for _, a := range ds.Pre {
		items = append(items, algebra.ProjItem{E: pick(PreName(a), a), As: PreName(a)})
	}
	for _, a := range ds.Post {
		items = append(items, algebra.ProjItem{E: pick(PostName(a), a), As: PostName(a)})
	}
	return algebra.NewProject(plan, items)
}

// transitions classifies the tuples an update moves across an operator's
// condition (Tables 6, 10 and 13): pre and post are the operator's output
// tuples, under sch, that the diff ds matches in the pre- and the
// post-state. A tuple only in pre leaves (del), one only in post enters
// (ins), and one in both stays (upd), an update whose post values are the
// diff's updated attributes and whose other attributes are carried as
// pre-state (their post values equal their pre values), so downstream
// operators see a precise update diff and keep their fast paths. del
// carries the leaving tuples' pre-state values when delPre, else their IDs
// alone.
func transitions(ds DiffSchema, sch rel.Schema, pre, post algebra.Node, delPre bool) (del, ins, upd decl) {
	key := sch.Key
	preKeys := renameAll(algebra.Keep(pre, key...), "@o")
	postKeys := renameAll(algebra.Keep(post, key...), "@n")
	updPost := rel.Intersect(sch.NonKey(), ds.Post)
	updDS := DiffSchema{Type: DiffUpdate, Rel: ds.Rel, IDs: key, Pre: rel.Minus(sch.NonKey(), updPost), Post: updPost}
	return deleteOf(ds.Rel, sch, algebra.NewAntiJoin(pre, postKeys, idEq(key, "@n")), delPre),
		insertOf(ds.Rel, sch, algebra.NewAntiJoin(post, preKeys, idEq(key, "@o"))),
		decl{schema: updDS, plan: toDiff(algebra.NewSemiJoin(post, preKeys, idEq(key, "@o")), updDS, preSrcFromPlain(updDS))}
}

// insertOf is the insert diff of the full tuples over sch that plan holds
// under their plain attribute names: their IDs and every other attribute's
// post-state value.
func insertOf(relName string, sch rel.Schema, plan algebra.Node) decl {
	ds := DiffSchema{Type: DiffInsert, Rel: relName, IDs: append([]string(nil), sch.Key...), Post: sch.NonKey()}
	return decl{schema: ds, plan: toDiff(plan, ds, nil)}
}

// deleteOf is the delete diff of the tuples over sch that plan holds under
// their plain attribute names: their IDs and, when pre, their other
// attributes as pre-state values.
func deleteOf(relName string, sch rel.Schema, plan algebra.Node, pre bool) decl {
	ds := DiffSchema{Type: DiffDelete, Rel: relName, IDs: sch.Key}
	if pre {
		ds.Pre = sch.NonKey()
	}
	return decl{schema: ds, plan: toDiff(plan, ds, preSrcFromPlain(ds))}
}

// preSrcFromPlain maps each pre attribute of ds to the plain column of the
// same name, for toDiff over plans carrying plain attribute values.
func preSrcFromPlain(ds DiffSchema) map[string]string {
	m := map[string]string{}
	for _, a := range ds.Pre {
		m[PreName(a)] = a
	}
	return m
}

// widenReconstruct rebuilds full target-relation tuples for a diff that
// lacks some of the target's columns, by joining the diff with the
// subview itself (the Input keyword of Section 4) on the diff's IDs and
// taking missing columns from the joined-in tuple. It is the non-blue
// variant of the Table 6/10 rules, paying input accesses where the
// diff-only variants cannot apply.
func widenReconstruct(in decl, input inputFn, attrs []string, st rel.State) algebra.Node {
	ds := in.schema
	j := algebra.NewJoin(in.plan, renamedInput(input, st, "@w"), idEq(ds.IDs, "@w"))
	items := make([]algebra.ProjItem, len(attrs))
	for i, a := range attrs {
		src := a + "@w"
		switch {
		case rel.Contains(ds.IDs, a):
			src = a
		case st == rel.StatePost && rel.Contains(ds.Post, a):
			src = PostName(a)
		case rel.Contains(ds.Pre, a) && (st == rel.StatePre || !rel.Contains(ds.Post, a)):
			src = PreName(a)
		}
		items[i] = algebra.ProjItem{E: expr.C(src), As: a}
	}
	return algebra.NewProject(j, items)
}

// reconstructOrWiden picks the diff-only reconstruction when possible and
// falls back to widenReconstruct.
func reconstructOrWiden(in decl, input inputFn, attrs []string, st rel.State) algebra.Node {
	if canReconstruct(in, attrs, st) {
		return reconstruct(in, attrs, st)
	}
	return widenReconstruct(in, input, attrs, st)
}

// renameAll projects every attribute of plan to name+suffix, making its
// schema disjoint for self-combination (matching pre vs post match sets).
func renameAll(plan algebra.Node, suffix string) algebra.Node {
	sch := plan.Schema()
	items := make([]algebra.ProjItem, len(sch.Attrs))
	for i, a := range sch.Attrs {
		items[i] = algebra.ProjItem{E: expr.C(a), As: a + suffix}
	}
	return algebra.NewProject(plan, items)
}

// idEq builds the equality predicate joining ids on the left plan to
// ids+suffix on the right plan.
func idEq(ids []string, suffix string) expr.Expr { return idEqBoth(ids, "", suffix) }

// unionPlans is the bag union of plans with identical attribute lists: one
// untagged ∪all, or the one plan.
func unionPlans(plans []algebra.Node) algebra.Node {
	if len(plans) == 1 {
		return plans[0]
	}
	return algebra.NewUnionAll("", plans...)
}

// dedupKeys builds a distinct projection of the given columns via a
// group-by with no aggregates.
func dedupKeys(plan algebra.Node, cols []string) algebra.Node {
	return algebra.NewGroupBy(algebra.Keep(plan, cols...), cols, nil)
}

// subsetOf reports whether a is a subset of b treating both as sets.
func subsetOf(a, b []string) bool { return rel.Subset(a, b) }

// changeGuard builds the σ_isupd filter of Table 8: it keeps only diff
// tuples where at least one post value differs from its pre counterpart —
// differs under KeyEqual (keyeq), the equality stored rows are told apart
// by, not SQL =, which compares numerics through float64 and NaN or NULL
// to nothing. attrs must be present in both the diff's pre and post sets.
func changeGuard(ds DiffSchema) (expr.Expr, bool) {
	var eqs []expr.Expr
	for _, a := range ds.Post {
		if !rel.Contains(ds.Pre, a) {
			return nil, false
		}
		eqs = append(eqs, expr.Call("keyeq", expr.C(PostName(a)), expr.C(PreName(a))))
	}
	if len(eqs) == 0 {
		return nil, false
	}
	return expr.Not(expr.And(eqs...)), true
}
