package ivm

import (
	"fmt"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Delta column names used by the incremental aggregation path: one per
// aggregate, plus the change in the group's tuple count.
func deltaCol(j int) string { return fmt.Sprintf("Δx%d", j) }

const tupleCntCol = "Δcnt"

// renamedInput returns the subview in the given state with every column
// suffixed, staying index-probeable when the subview is a stored leaf.
func renamedInput(in inputFn, st rel.State, sfx string) algebra.Node {
	n := in(st)
	switch x := n.(type) {
	case *algebra.Scan:
		return x.Renamed(sfx)
	case *algebra.RelRef:
		if x.Stored {
			return x.Renamed(sfx)
		}
	}
	return renameAll(n, sfx)
}

// probeableLeaf reports whether n is a leaf renamedInput keeps
// index-probeable: a Scan or a stored RelRef.
func probeableLeaf(n algebra.Node) bool {
	ref, isRef := n.(*algebra.RelRef)
	_, isScan := n.(*algebra.Scan)
	return isScan || isRef && ref.Stored
}

// groupRules dispatches each input diff of a γ to one of two rules: the
// incremental rule (Tables 9 and 11, extended with group creation and
// deletion), which needs every aggregate to be a SUM or a COUNT, or the
// general recompute rule (Table 7). Derived aggregates never get here as
// such — normalizeAggs rewrote them into plans over these two. A diff is
// key-moving when it is an update whose post set intersects the grouping
// attributes: it moves tuples between groups, which only Table 7 handles.
//
//	aggregates   mode / input             key-moving diffs   other diffs
//	SUM/COUNT    any, none key-moving     —                  Tables 9/11
//	SUM/COUNT    ID mode, scan or cache   Table 7 on ΔK      Tables 9/11, ΔG ▷ ΔK
//	anything else                         Table 7            Table 7
//
// The mixed row is exact because ΔK holds the pre- and the post-group of
// every moved tuple: a group outside ΔK neither lost nor gained a moved
// tuple, so the other diffs' combined delta ΔG ▷ ΔK describes it
// completely, and a group inside ΔK is recomputed from the input's
// post-state, which already reflects every diff. No group takes both
// paths. It needs an input the planner probes by index (probeableLeaf):
// the incremental path's new-group and dead-group probes read it by group
// key, and would hash any other input whole (DESIGN.md §16).
func (g *gen) groupRules(op *algebra.GroupBy, ins []decl, input inputFn, output inputFn, ph Phase) ([]decl, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	incremental := len(op.Aggs) > 0
	for _, a := range op.Aggs {
		if a.Fn != algebra.AggSum && a.Fn != algebra.AggCount {
			incremental = false
		}
	}
	var moving, rest []decl
	for _, in := range ins {
		if in.schema.Type == DiffUpdate && len(rel.Intersect(op.Keys, in.schema.Post)) > 0 {
			moving = append(moving, in)
		} else {
			rest = append(rest, in)
		}
	}
	switch {
	case incremental && len(moving) == 0:
		return g.groupIncremental(op, ins, nil, input, output, ph)
	case incremental && !g.tupleMode && probeableLeaf(input(rel.StatePost)):
		ak := g.share("ΔK", affectedGroupKeys(op, moving, input), ph)
		incr, err := g.groupIncremental(op, rest, ak, input, output, ph)
		if err != nil {
			return nil, err
		}
		return append(g.classifyRecomputed(op, ak, input, output, ph), incr...), nil
	}
	ak := g.share("ΔK", affectedGroupKeys(op, ins, input), ph)
	return g.classifyRecomputed(op, ak, input, output, ph), nil
}

// kappaCol names the i-th input-tuple ID column carried by contribution
// rows; the combiner uses them to deduplicate overlapping contributions
// from different base-diff paths (e.g. a part deletion and a containment
// deletion both removing the same cache tuple).
func kappaCol(i int) string { return fmt.Sprintf("κ%d", i) }

// contribution builds, for one input diff, a plan producing one row per
// affected input tuple with the input tuple's full ID, the group key, and
// one delta column per aggregate: (κ̄, Ḡ, Δx_j, Δcnt). This realizes
// the ∆1/∆2/∆3 rules of Tables 9 and 11; partial-ID update diffs are
// expanded to per-tuple granularity by joining the input's pre-state on
// the diff's IDs — the central trick of the paper's Figure 7 script.
func (g *gen) contribution(op *algebra.GroupBy, in decl, input inputFn) (algebra.Node, error) {
	ds := in.schema
	childKey := op.Child.Schema().Key

	// Columns the contribution needs from the input tuple.
	needed := append([]string(nil), op.Keys...)
	for _, a := range op.Aggs {
		if a.Arg != nil {
			needed = rel.Union(needed, a.Arg.Cols())
		}
	}
	needed = rel.Union(needed, childKey)

	// source plan + rename maps from child attrs to source columns.
	var source algebra.Node
	var preRen, postRen map[string]string
	fullID := len(ds.IDs) == len(childKey) && subsetOf(ds.IDs, childKey) && subsetOf(childKey, ds.IDs)

	switch ds.Type {
	case DiffInsert:
		// ∆3 = ∆+ ▷Ī Input_pre (Table 9: skip tuples already present, so
		// repeated effective inserts stay idempotent).
		rec := reconstruct(in, rel.Union(needed, ds.IDs), rel.StatePost)
		inPre := renamedInput(input, rel.StatePre, "@e")
		source = algebra.NewAntiJoin(rec, inPre, idEq(ds.IDs, "@e"))
		preRen, postRen = identityMap(needed), identityMap(needed)

	case DiffDelete:
		if canReconstruct(in, needed, rel.StatePre) {
			source = reconstruct(in, needed, rel.StatePre)
			preRen, postRen = identityMap(needed), identityMap(needed)
		} else {
			source = algebra.NewJoin(in.plan, renamedInput(input, rel.StatePre, "@in"), idEq(ds.IDs, "@in"))
			preRen = suffixMap(needed, "@in")
			postRen = preRen
		}

	case DiffUpdate:
		// An update touching neither the aggregate arguments nor the tuple
		// count leaves every group unchanged: contribute nothing.
		affectsAny := false
		for _, a := range op.Aggs {
			if a.Arg != nil && len(rel.Intersect(a.Arg.Cols(), ds.Post)) > 0 {
				affectsAny = true
			}
		}
		if !affectsAny {
			return nil, nil
		}
		if fullID && canReconstruct(in, needed, rel.StatePre) && canReconstruct(in, needed, rel.StatePost) {
			source = in.plan
			preRen = restrictMap(preMap(ds), ds.IDs, needed)
			postRen = restrictMap(postMap(ds), ds.IDs, needed)
		} else {
			// Table 9's ∆1: expand through Input_pre on the diff's IDs.
			source = algebra.NewJoin(in.plan, renamedInput(input, rel.StatePre, "@in"), idEq(ds.IDs, "@in"))
			preRen = suffixMap(needed, "@in")
			postRen = map[string]string{}
			for _, a := range needed {
				if rel.Contains(ds.Post, a) {
					postRen[a] = PostName(a)
				} else {
					postRen[a] = a + "@in"
				}
			}
		}
	}

	// Build the projection items: input-tuple ID, group key, deltas. A SUM
	// changes by the argument (NULL counts 0), a COUNT(x) by whether it is
	// non-NULL, COUNT(*) and the group's size by the tuple itself.
	var items []algebra.ProjItem
	for i, k := range childKey {
		items = append(items, algebra.ProjItem{E: expr.C(preRen[k]), As: kappaCol(i)})
	}
	for _, k := range op.Keys {
		items = append(items, algebra.ProjItem{E: expr.C(preRen[k]), As: k})
	}
	zero := expr.IntLit(0)
	var tupleCnt expr.Expr = zero // an update keeps every tuple in its group
	switch ds.Type {
	case DiffInsert:
		tupleCnt = expr.IntLit(1)
	case DiffDelete:
		tupleCnt = expr.IntLit(-1)
	}
	for j, a := range op.Aggs {
		delta := tupleCnt
		if a.Arg != nil {
			weight := func(ren map[string]string) expr.Expr {
				arg := expr.Rename(a.Arg, ren)
				if a.Fn == algebra.AggSum {
					return expr.Call("coalesce", arg, zero)
				}
				return expr.Call("notnull", arg)
			}
			switch {
			case ds.Type == DiffInsert:
				delta = weight(postRen)
			case ds.Type == DiffDelete:
				delta = expr.SubE(zero, weight(preRen))
			case len(rel.Intersect(a.Arg.Cols(), ds.Post)) > 0:
				delta = expr.SubE(weight(postRen), weight(preRen))
			}
		}
		items = append(items, algebra.ProjItem{E: delta, As: deltaCol(j)})
	}
	items = append(items, algebra.ProjItem{E: tupleCnt, As: tupleCntCol})

	return algebra.NewProject(source, items), nil
}

// identityMap maps each name to itself.
func identityMap(names []string) map[string]string {
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}

// suffixMap maps each name to name+sfx.
func suffixMap(names []string, sfx string) map[string]string {
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n + sfx
	}
	return m
}

// restrictMap extends a pre/post map with identity entries for IDs and
// restricts it to the needed columns.
func restrictMap(base map[string]string, ids, needed []string) map[string]string {
	m := make(map[string]string, len(needed))
	for _, n := range needed {
		if rel.Contains(ids, n) {
			m[n] = n
		} else if v, ok := base[n]; ok {
			m[n] = v
		} else {
			m[n] = n
		}
	}
	return m
}

// groupIncremental implements the blocking incremental rules for SUM and
// COUNT (Tables 9 and 11): it combines every input diff into one
// per-group delta relation, joins it with the operator's Output to update
// existing groups, and — as an extension over the paper, which "does not
// handle group creation/deletion" — recomputes newly created groups from
// the input cache and deletes groups whose tuple count reaches zero. A
// non-nil ak names the groups the caller recomputes instead (groupRules'
// mixed dispatch); they are removed from the combined delta.
func (g *gen) groupIncremental(op *algebra.GroupBy, ins []decl, ak algebra.Node, input inputFn, output inputFn, ph Phase) ([]decl, error) {
	// 1. Contributions from every diff, partitioned by diff kind so that
	// overlapping contributions from different base-diff paths can be
	// deduplicated: two paths deleting (or inserting) the same input tuple
	// yield identical rows and are collapsed; an update contribution for a
	// tuple that some path deletes or inserts is dropped (the delete already
	// accounts for the tuple's entire pre-state value, the insert for its
	// entire post-state value — an update delta on top would double-count).
	byKind := map[DiffType][]algebra.Node{}
	for _, in := range ins {
		c, err := g.contribution(op, in, input)
		if err != nil {
			return nil, err
		}
		if c != nil {
			byKind[in.schema.Type] = append(byKind[in.schema.Type], c)
		}
	}
	if len(byKind) == 0 {
		return nil, nil
	}
	childKey := op.Child.Schema().Key
	var kcols []string
	for i := range childKey {
		kcols = append(kcols, kappaCol(i))
	}
	upds := byKind[DiffUpdate]
	var parts []algebra.Node
	var allCols []string
	// collect unions one kind's contributions into the combined delta.
	collect := func(kind DiffType) algebra.Node {
		ps := byKind[kind]
		if len(ps) == 0 {
			return nil
		}
		u := unionPlans(ps)
		if allCols == nil {
			allCols = u.Schema().Attrs
		}
		if len(ps) > 1 {
			u = dedupKeys(u, allCols)
		}
		parts = append(parts, u)
		return u
	}
	dels := collect(DiffDelete)
	insrt := collect(DiffInsert)
	if len(upds) > 0 {
		u := unionPlans(upds)
		if allCols == nil {
			allCols = u.Schema().Attrs
		}
		pruned := u
		if dels != nil {
			pruned = algebra.NewAntiJoin(pruned, renameAll(algebra.Keep(dels, kcols...), "@x"), idEq(kcols, "@x"))
		}
		if insrt != nil {
			// Insert contributions pass ∆3's anti-join with Input_pre, so
			// their κ̄ keys are exactly the effectively-new tuples — the ones
			// whose post-state value the insert path fully accounts. A
			// same-epoch update of such a tuple (possible with full-tuple
			// diffs, whose update rule enumerates post-state join tuples)
			// must not also contribute its pre→post delta.
			pruned = algebra.NewAntiJoin(pruned, renameAll(algebra.Keep(insrt, kcols...), "@y"), idEq(kcols, "@y"))
		}
		if pruned != u {
			parts = append(parts, algebra.Keep(pruned, allCols...))
		} else {
			parts = append(parts, u)
		}
	}

	// 2. The combined group-delta relation CD = γ_Ḡ, sum(Δ…), scheduled
	// before the input cache's (deferred) applies: it reads only pre-state,
	// so its probes reuse the cache's live post-state indexes.
	keys := op.Keys
	var cdAggs []algebra.Agg
	sumOf := func(c string) { cdAggs = append(cdAggs, algebra.Agg{Fn: algebra.AggSum, Arg: expr.C(c), As: c + "Σ"}) }
	for j := range op.Aggs {
		sumOf(deltaCol(j))
	}
	sumOf(tupleCntCol)
	var cdPlan algebra.Node = algebra.NewGroupBy(unionPlans(parts), keys, cdAggs)
	if ak != nil {
		cdPlan = algebra.NewAntiJoin(cdPlan, renameAll(ak, "@k"), idEq(keys, "@k"))
	}
	cd := renameAll(g.share("ΔG", cdPlan, ph), "@d")
	// 3. The matched groups ΔM = CD ⋈Ḡ Output_pre: the operator's one
	// Output probe — one view index lookup per affected group, the |D|pg
	// term of Table 3. Bound ahead of the deferred applies, like ΔG.
	outPre := renamedInput(output, rel.StatePre, "") // plain names
	matched := g.share("ΔM", algebra.NewJoin(cd, outPre, idEqBoth(keys, "@d", "")), ph)
	g.flushPending()

	// ∆u for existing groups: a π over ΔM.
	// Columns in the diff's own layout (IDs, pre, post): an interior γ's
	// diff is read back through a reference declared with that layout.
	updDS := DiffSchema{Type: DiffUpdate, Rel: "", IDs: keys}
	var updItems, posts []algebra.ProjItem
	for _, k := range keys {
		updItems = append(updItems, algebra.ProjItem{E: expr.C(k), As: k})
	}
	for j, a := range op.Aggs {
		updDS.Pre, updDS.Post = append(updDS.Pre, a.As), append(updDS.Post, a.As)
		updItems = append(updItems, algebra.ProjItem{E: expr.C(a.As), As: PreName(a.As)})
		posts = append(posts, algebra.ProjItem{E: expr.AddE(expr.C(a.As), expr.C(deltaCol(j)+"Σ@d")), As: PostName(a.As)})
	}
	updItems = append(updItems, posts...)
	updOut := algebra.NewProject(matched, updItems)

	// 4–5. ∆+ for newly created and ∆- for dying groups (extension): the
	// groups of the combined delta that ΔM did not match — CD has one row
	// per group, so CD ▷ ΔM equals CD ▷ Output_pre and reads no stored
	// table —, recomputed from the input's post-state, and those that
	// received deletions and have no tuple left in it.
	newKeys := projectSuffixToPlain(algebra.NewAntiJoin(cd, algebra.Keep(matched, keys...), idEqBoth(keys, "@d", "")), keys, "@d")
	recNew := algebra.NewGroupBy(
		algebra.NewSemiJoin(input(rel.StatePost), renameAll(newKeys, "@k"), idEq(keys, "@k")),
		keys, op.Aggs)
	delCandidates := projectSuffixToPlain(
		algebra.NewSelect(cd, expr.Lt(expr.C(tupleCntCol+"Σ@d"), expr.IntLit(0))),
		keys, "@d")
	dead := algebra.Keep(
		algebra.NewAntiJoin(delCandidates, renamedInput(input, rel.StatePost, "@s"), idEq(keys, "@s")),
		keys...)
	insDS := insertSchemaFor("", op.Schema())
	delDS := DiffSchema{Type: DiffDelete, Rel: "", IDs: keys}

	return []decl{
		{schema: delDS, plan: dead},
		{schema: updDS, plan: updOut},
		{schema: insDS, plan: toDiff(recNew, insDS, nil)},
	}, nil
}

// affectedGroupKeys builds the deduplicated union of every group key some
// diff of ins touches, reading pre and post images as the diff kind
// requires (step 1 of the general aggregation rule, Table 7). The result
// covers the pre- and the post-group of every tuple a diff touches; it may
// name more groups, never fewer.
func affectedGroupKeys(op *algebra.GroupBy, ins []decl, input inputFn) algebra.Node {
	keys := op.Keys
	moving := func(ds DiffSchema) bool {
		return ds.Type == DiffUpdate && len(rel.Intersect(keys, ds.Post)) > 0
	}
	var keyPlans []algebra.Node
	for i, in := range ins {
		ds := in.schema
		states := []rel.State{rel.StatePre}
		if ds.Type == DiffInsert {
			states[0] = rel.StatePost
		} else if moving(ds) {
			states = append(states, rel.StatePost)
		}
		// A diff that does not carry Ḡ joins the input's pre-state on its
		// IDs to recover it — one join, whichever images are read from it.
		var widened algebra.Node
		for _, st := range states {
			if canReconstruct(in, keys, st) {
				keyPlans = append(keyPlans, algebra.Keep(reconstruct(in, keys, st), keys...))
				continue
			}
			if widened == nil {
				widened = algebra.NewJoin(in.plan, renamedInput(input, rel.StatePre, "@in"), idEq(ds.IDs, "@in"))
			}
			var items []algebra.ProjItem
			for _, k := range keys {
				src := k + "@in"
				if st == rel.StatePost && rel.Contains(ds.Post, k) {
					src = PostName(k)
				} else if rel.Contains(ds.IDs, k) {
					src = k
				}
				items = append(items, algebra.ProjItem{E: expr.C(src), As: k})
			}
			keyPlans = append(keyPlans, algebra.NewProject(widened, items))
		}
		// The post image above takes the grouping attributes this diff does
		// not update from the tuple's pre-state. That is the tuple's group
		// unless another key-moving diff changed one of them in the same
		// round: whenever such a diff is non-empty, read the groups of this
		// diff's tuples from the input's post-state as well.
		var rivals []algebra.Node
		for j, o := range ins {
			if len(states) > 1 && j != i && moving(o.schema) && len(rel.Intersect(rel.Minus(keys, ds.Post), o.schema.Post)) > 0 {
				rivals = append(rivals, algebra.NewProject(o.plan, []algebra.ProjItem{{E: expr.IntLit(1), As: "#hit"}}))
			}
		}
		if len(rivals) > 0 {
			hit := algebra.NewSemiJoin(in.plan, unionPlans(rivals), expr.True())
			exact := algebra.NewJoin(hit, renamedInput(input, rel.StatePost, "@p"), idEq(ds.IDs, "@p"))
			keyPlans = append(keyPlans, projectSuffixToPlain(exact, keys, "@p"))
		}
	}
	return dedupKeys(unionPlans(keyPlans), keys)
}

// classifyRecomputed is steps 2–5 of the general aggregation rule (Table
// 7): recompute the groups of ak from the input's post-state once into ΔR,
// then classify ΔR against the operator's Output into updates, inserts
// (new groups) and deletes (vanished groups). Each of the three diffs reads
// ΔK/ΔR by reference.
func (g *gen) classifyRecomputed(op *algebra.GroupBy, ak algebra.Node, input, output inputFn, ph Phase) []decl {
	keys := op.Keys
	var aggCols []string
	for _, a := range op.Aggs {
		aggCols = append(aggCols, a.As)
	}
	rec := g.share("ΔR", algebra.NewGroupBy(
		algebra.NewSemiJoin(input(rel.StatePost), renameAll(ak, "@k"), idEq(keys, "@k")), keys, op.Aggs), ph)
	outPre := renamedInput(output, rel.StatePre, "@o")

	var outs []decl
	// 3. Existing groups → ∆u, read from ΔM = ΔR ⋉ Output_pre, the rule's
	// one Output probe (dummy updates for groups never in the view are
	// overestimation and cost only their index lookup).
	held := outPre // the groups ∆+ leaves out
	if len(aggCols) > 0 {
		updDS := DiffSchema{Type: DiffUpdate, Rel: "", IDs: keys, Post: aggCols}
		matched := g.share("ΔM", algebra.NewSemiJoin(rec, outPre, idEq(keys, "@o")), ph)
		outs = append(outs, decl{schema: updDS, plan: toDiff(matched, updDS, nil)})
		// ΔR has one row per group, so ΔR ▷ ΔM equals ΔR ▷ Output_pre
		// and reads no stored table.
		held = renameAll(algebra.Keep(matched, keys...), "@o")
	}
	// 4. New groups → ∆+.
	insDS := insertSchemaFor("", op.Schema())
	ins := toDiff(algebra.NewAntiJoin(rec, held, idEq(keys, "@o")), insDS, nil)
	outs = append(outs, decl{schema: insDS, plan: ins})
	// 5. Vanished groups → ∆-: affected keys with no recomputed group.
	delDS := DiffSchema{Type: DiffDelete, Rel: "", IDs: keys}
	del := algebra.NewAntiJoin(ak, renameAll(algebra.Keep(rec, keys...), "@r"), idEq(keys, "@r"))
	return append(outs, decl{schema: delDS, plan: del})
}

// projectSuffixToPlain projects suffixed key columns back to plain names.
func projectSuffixToPlain(plan algebra.Node, keys []string, sfx string) algebra.Node {
	items := make([]algebra.ProjItem, len(keys))
	for i, k := range keys {
		items[i] = algebra.ProjItem{E: expr.C(k + sfx), As: k}
	}
	return algebra.NewProject(plan, items)
}

// idEqBoth joins lsfx-renamed columns to rsfx-renamed columns (either
// suffix may be empty).
func idEqBoth(ids []string, lsfx, rsfx string) expr.Expr {
	terms := make([]expr.Expr, len(ids))
	for i, id := range ids {
		terms[i] = expr.Eq(expr.C(id+lsfx), expr.C(id+rsfx))
	}
	return expr.And(terms...)
}
