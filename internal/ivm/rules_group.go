package ivm

import (
	"fmt"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Delta column names used by the incremental aggregation path.
func sumDeltaCol(j int) string { return fmt.Sprintf("Δx%d", j) }
func cntDeltaCol(j int) string { return fmt.Sprintf("Δn%d", j) }

const tupleCntCol = "Δcnt"

// renamedInput returns the subview in the given state with every column
// suffixed, staying index-probeable when the subview is materialized.
func renamedInput(in inputFn, st rel.State, sfx string) algebra.Node {
	n := in(st)
	if ref, ok := n.(*algebra.RelRef); ok && ref.Stored {
		return ref.Renamed(sfx)
	}
	return renameAll(n, sfx)
}

// groupRules dispatches each input diff of a γ to the incremental path
// (Tables 9, 11 and 12 for SUM, COUNT and AVG, extended with group
// creation/deletion) or to the general recompute path (Table 7). A diff is
// key-moving when it is an update whose post set intersects the grouping
// attributes: it moves tuples between groups, which only Table 7 handles.
//
//	aggregates      mode / input          key-moving diffs   other diffs
//	SUM/COUNT/AVG   any, none key-moving  —                  Tables 9/11/12
//	SUM/COUNT       ID mode, stored input Table 7 on ΔK      Tables 9/11, ΔG ▷ ΔK
//	SUM/COUNT/AVG   otherwise             Table 7            Table 7
//	MIN/MAX (arg)   ID mode, caches on    multiset cache     multiset cache
//	anything else   any                   Table 7            Table 7
//
// The mixed row is exact because ΔK holds the pre- and the post-group of
// every moved tuple: a group outside ΔK neither lost nor gained a moved
// tuple, so the other diffs' combined delta ΔG ▷ ΔK describes it
// completely, and a group inside ΔK is recomputed from the input's
// post-state, which already reflects every diff. No group takes both
// paths. It is confined to stored inputs because the incremental path's
// new-group and dead-group probes read the input by group key — an index
// lookup on a cache, repeated scans of an unmaterialized input (DESIGN.md
// §16 records the measured regression).
func (g *gen) groupRules(op *algebra.GroupBy, ins []decl, input inputFn, output inputFn, ph Phase) ([]decl, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	incremental, hasAvg := len(op.Aggs) > 0, false
	for _, a := range op.Aggs {
		switch a.Fn {
		case algebra.AggSum, algebra.AggCount:
		case algebra.AggAvg:
			hasAvg = true
		default:
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
	inRef, _ := input(rel.StatePost).(*algebra.RelRef)
	switch {
	case incremental && len(moving) == 0:
		return g.groupIncremental(op, ins, nil, input, output, ph)
	case incremental && !hasAvg && !g.tupleMode && inRef != nil && inRef.Stored:
		ak := g.share("ΔK", affectedGroupKeys(op, moving, input), ph)
		incr, err := g.groupIncremental(op, rest, ak, input, output, ph)
		if err != nil {
			return nil, err
		}
		return append(g.classifyRecomputed(op, ak, input(rel.StatePost), output, ph), incr...), nil
	case g.minMaxCacheable(op):
		return g.groupMinMaxCached(op, ins, input, output, ph)
	}
	ak := g.share("ΔK", affectedGroupKeys(op, ins, input), ph)
	return g.classifyRecomputed(op, ak, input(rel.StatePost), output, ph), nil
}

// minMaxCacheable reports whether the ordered-multiset cache path applies:
// every aggregate is a MIN/MAX with an argument and caches are enabled.
// Updates that move tuples across groups need no special case here — the
// cache's own diffs name both group images and the affected groups are
// recomputed from the cache's exact post-state.
func (g *gen) minMaxCacheable(op *algebra.GroupBy) bool {
	if g.tupleMode || g.opts.NoCache || len(op.Aggs) == 0 {
		return false
	}
	for _, a := range op.Aggs {
		if (a.Fn != algebra.AggMin && a.Fn != algebra.AggMax) || a.Arg == nil {
			return false
		}
	}
	return true
}

// minMaxMultCol is the multiplicity column of the ordered-multiset cache.
const minMaxMultCol = "#mult"

// groupMinMaxCached implements the ordered-multiset path for MIN/MAX: the
// operator keeps a cache C = γ_{Ḡ ∪ v̄}(COUNT(*)) of the distinct
// (group, argument) combinations with their multiplicities. MIN/MAX are
// duplicate-insensitive, so recomputing an affected group from C is exact
// and touches one row per distinct value instead of one per input tuple —
// a delete of the current minimum no longer rescans the whole group. The
// cache itself is COUNT-maintained by recursing into the group rules: the
// incremental path (Table 11) updates multiplicities in place, and an
// update that moves argument values lands on the recompute path of the
// synthetic γ, still exact.
func (g *gen) groupMinMaxCached(op *algebra.GroupBy, ins []decl, input inputFn, output inputFn, ph Phase) ([]decl, error) {
	vcols := []string{}
	for _, a := range op.Aggs {
		vcols = rel.Union(vcols, a.Arg.Cols())
	}
	cacheKeys := rel.Union(append([]string(nil), op.Keys...), vcols)

	cacheName := g.freshCache()
	cachePlan := algebra.NewGroupBy(input(rel.StatePost), cacheKeys,
		[]algebra.Agg{{Fn: algebra.AggCount, As: minMaxMultCol}})
	cacheSchema := cachePlan.Schema()
	g.caches = append(g.caches, CacheDef{Name: cacheName, Plan: cachePlan})

	// Maintain C through the same diffs the operator consumes. The
	// recursion cannot loop: COUNT(*) is never min/max-cacheable.
	cacheDecls, err := g.groupRules(cachePlan, ins, input, storedInput(cacheName, cacheSchema), ph)
	if err != nil {
		return nil, err
	}
	cacheDiffs := g.emitAndRef(cacheName, cacheDecls, ph, PhaseCacheUpdate)

	// A group's extremes can only move when its multiset does, and every
	// diff of C names its (group, value) row by full ID: the affected
	// groups are the Ḡ columns of C's own diffs — no stored access. They
	// recompute from C's post-state, behind C's applies.
	var keyPlans []algebra.Node
	for _, d := range cacheDiffs {
		keyPlans = append(keyPlans, algebra.Keep(d.plan, op.Keys...))
	}
	ak := g.share("ΔK", dedupKeys(unionPlans(keyPlans), op.Keys), ph)
	return g.classifyRecomputed(op, ak, algebra.NewStoredRef(cacheName, cacheSchema, rel.StatePost), output, ph), nil
}

// kappaCol names the i-th input-tuple ID column carried by contribution
// rows; the combiner uses them to deduplicate overlapping contributions
// from different base-diff paths (e.g. a part deletion and a containment
// deletion both removing the same cache tuple).
func kappaCol(i int) string { return fmt.Sprintf("κ%d", i) }

// contribution builds, for one input diff, a plan producing one row per
// affected input tuple with the input tuple's full ID, the group key, and
// per-aggregate delta columns: (κ̄, Ḡ, Δx_j, Δn_j, Δcnt). This realizes
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

	// Build the projection items: input-tuple ID, group key, deltas.
	var items []algebra.ProjItem
	for i, k := range childKey {
		items = append(items, algebra.ProjItem{E: expr.C(preRen[k]), As: kappaCol(i)})
	}
	for _, k := range op.Keys {
		items = append(items, algebra.ProjItem{E: expr.C(preRen[k]), As: k})
	}
	zero := expr.IntLit(0)
	for j, a := range op.Aggs {
		var pre, post expr.Expr
		if a.Arg != nil {
			pre = expr.Rename(a.Arg, preRen)
			post = expr.Rename(a.Arg, postRen)
		}
		sumPre := func() expr.Expr { return expr.Call("coalesce", pre, zero) }
		sumPost := func() expr.Expr { return expr.Call("coalesce", post, zero) }
		nnPre := func() expr.Expr { return expr.Call("notnull", pre) }
		nnPost := func() expr.Expr { return expr.Call("notnull", post) }

		var sumDelta, cntDelta expr.Expr
		switch ds.Type {
		case DiffInsert:
			if a.Arg != nil {
				sumDelta, cntDelta = sumPost(), nnPost()
			} else {
				sumDelta, cntDelta = zero, expr.IntLit(1)
			}
		case DiffDelete:
			if a.Arg != nil {
				sumDelta = expr.SubE(zero, sumPre())
				cntDelta = expr.SubE(zero, nnPre())
			} else {
				sumDelta, cntDelta = zero, expr.IntLit(-1)
			}
		case DiffUpdate:
			if a.Arg != nil && len(rel.Intersect(a.Arg.Cols(), ds.Post)) > 0 {
				sumDelta = expr.SubE(sumPost(), sumPre())
				cntDelta = expr.SubE(nnPost(), nnPre())
			} else {
				sumDelta, cntDelta = zero, zero
			}
		}
		items = append(items, algebra.ProjItem{E: sumDelta, As: sumDeltaCol(j)})
		items = append(items, algebra.ProjItem{E: cntDelta, As: cntDeltaCol(j)})
	}
	var tupleCnt expr.Expr
	switch ds.Type {
	case DiffInsert:
		tupleCnt = expr.IntLit(1)
	case DiffDelete:
		tupleCnt = expr.IntLit(-1)
	default:
		tupleCnt = zero
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

// groupIncremental implements the blocking incremental rules for
// SUM/COUNT/AVG (Tables 9, 11, 12): it combines every input diff into one
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
	for j := range op.Aggs {
		cdAggs = append(cdAggs,
			algebra.Agg{Fn: algebra.AggSum, Arg: expr.C(sumDeltaCol(j)), As: sumDeltaCol(j) + "Σ"},
			algebra.Agg{Fn: algebra.AggSum, Arg: expr.C(cntDeltaCol(j)), As: cntDeltaCol(j) + "Σ"})
	}
	cdAggs = append(cdAggs, algebra.Agg{Fn: algebra.AggSum, Arg: expr.C(tupleCntCol), As: tupleCntCol + "Σ"})
	var cdPlan algebra.Node = algebra.NewGroupBy(unionPlans(parts), keys, cdAggs)
	if ak != nil {
		cdPlan = algebra.NewAntiJoin(cdPlan, renameAll(ak, "@k"), idEq(keys, "@k"))
	}
	cd := renameAll(g.share("ΔG", cdPlan, ph), "@d")
	g.flushPending()

	var aggCols []string
	for _, a := range op.Aggs {
		aggCols = append(aggCols, a.As)
	}

	// 3. Optional operator cache for AVG (Table 12): Ḡ plus the sum and
	// count backing each AVG column, maintained alongside the view.
	var ocAggs []algebra.Agg
	for _, a := range op.Aggs {
		if a.Fn == algebra.AggAvg {
			ocAggs = append(ocAggs,
				algebra.Agg{Fn: algebra.AggSum, Arg: a.Arg, As: a.As + "#sum"},
				algebra.Agg{Fn: algebra.AggCount, Arg: a.Arg, As: a.As + "#cnt"})
		}
	}
	hasAvg := len(ocAggs) > 0
	dead := deadGroups(cd, input, keys)
	var avgCacheName string
	var avgCacheSchema rel.Schema
	if hasAvg {
		avgCacheName = g.freshCache()
		ocPlan := algebra.NewGroupBy(input(rel.StatePost), keys, ocAggs)
		avgCacheSchema = ocPlan.Schema()
		g.caches = append(g.caches, CacheDef{Name: avgCacheName, Plan: ocPlan})
		g.maintainAvgCache(op, ocAggs, cd, dead, input, avgCacheName, avgCacheSchema, ph)
	}

	// 4. ∆u for existing groups: CD ⋈Ḡ Output_pre (one view index lookup
	// per affected group — the |D|pg term of Table 3).
	outPre := renamedInput(output, rel.StatePre, "") // plain names
	join := algebra.NewJoin(cd, outPre, idEqBoth(keys, "@d", ""))
	updDS := DiffSchema{Type: DiffUpdate, Rel: "", IDs: keys, Pre: aggCols, Post: aggCols}
	var updPlan algebra.Node = join
	if hasAvg {
		ocPost := algebra.NewStoredRef(avgCacheName, avgCacheSchema, rel.StatePost).Renamed("@c")
		updPlan = algebra.NewJoin(updPlan, ocPost, idEq(keys, "@c"))
	}
	var updItems []algebra.ProjItem
	for _, k := range keys {
		updItems = append(updItems, algebra.ProjItem{E: expr.C(k), As: k})
	}
	for j, a := range op.Aggs {
		updItems = append(updItems, algebra.ProjItem{E: expr.C(a.As), As: PreName(a.As)})
		var post expr.Expr
		switch a.Fn {
		case algebra.AggSum:
			post = expr.AddE(expr.C(a.As), expr.C(sumDeltaCol(j)+"Σ@d"))
		case algebra.AggCount:
			if a.Arg != nil {
				post = expr.AddE(expr.C(a.As), expr.C(cntDeltaCol(j)+"Σ@d"))
			} else {
				post = expr.AddE(expr.C(a.As), expr.C(tupleCntCol+"Σ@d"))
			}
		case algebra.AggAvg:
			post = expr.DivE(expr.C(a.As+"#sum@c"), expr.C(a.As+"#cnt@c"))
		}
		updItems = append(updItems, algebra.ProjItem{E: post, As: PostName(a.As)})
	}
	updOut := algebra.NewProject(updPlan, updItems)

	// 5–6. ∆+ for newly created and ∆- for dying groups (extension).
	recNew := newGroups(cd, outPre, idEqBoth(keys, "@d", ""), input, keys, op.Aggs)
	insDS := insertSchemaFor("", op.Schema())
	delDS := DiffSchema{Type: DiffDelete, Rel: "", IDs: keys}

	return []decl{
		{schema: delDS, plan: dead},
		{schema: updDS, plan: updOut},
		{schema: insDS, plan: toDiff(recNew, insDS, nil)},
	}, nil
}

// newGroups is the incremental rules' ∆+ extension: the groups of the
// combined delta cd (columns suffixed "@d") that `existing` — the pre-state
// of the table being maintained, matched through pred — does not hold yet,
// recomputed with aggs from the input's post-state.
func newGroups(cd, existing algebra.Node, pred expr.Expr, input inputFn, keys []string, aggs []algebra.Agg) algebra.Node {
	newKeys := projectSuffixToPlain(algebra.NewAntiJoin(cd, existing, pred), keys, "@d")
	return algebra.NewGroupBy(
		algebra.NewSemiJoin(input(rel.StatePost), renameAll(newKeys, "@k"), idEq(keys, "@k")),
		keys, aggs)
}

// deadGroups is their ∆- extension: the groups of cd that received
// deletions and have no tuple left in the input's post-state.
func deadGroups(cd algebra.Node, input inputFn, keys []string) algebra.Node {
	delCandidates := projectSuffixToPlain(
		algebra.NewSelect(cd, expr.Lt(expr.C(tupleCntCol+"Σ@d"), expr.IntLit(0))),
		keys, "@d")
	return algebra.Keep(
		algebra.NewAntiJoin(delCandidates, renamedInput(input, rel.StatePost, "@s"), idEq(keys, "@s")),
		keys...)
}

// maintainAvgCache emits the cache maintenance steps for the AVG operator
// cache: update existing groups by the accumulated deltas, insert new
// groups recomputed from the input, and delete dead groups (Table 12's
// cache maintenance rules).
func (g *gen) maintainAvgCache(op *algebra.GroupBy, ocAggs []algebra.Agg, cd, dead algebra.Node,
	input inputFn, cacheName string, cacheSchema rel.Schema, ph Phase) {
	keys := op.Keys
	ocPre := algebra.NewStoredRef(cacheName, cacheSchema, rel.StatePre).Renamed("@c")
	join := algebra.NewJoin(cd, ocPre, idEqBoth(keys, "@d", "@c"))

	var pre, post []string
	var items []algebra.ProjItem
	for _, k := range keys {
		items = append(items, algebra.ProjItem{E: expr.C(k + "@d"), As: k})
	}
	for j, a := range op.Aggs {
		if a.Fn != algebra.AggAvg {
			continue
		}
		sumCol, cntCol := a.As+"#sum", a.As+"#cnt"
		pre = append(pre, sumCol, cntCol)
		post = append(post, sumCol, cntCol)
		items = append(items,
			algebra.ProjItem{E: expr.C(sumCol + "@c"), As: PreName(sumCol)},
			algebra.ProjItem{E: expr.C(cntCol + "@c"), As: PreName(cntCol)},
			algebra.ProjItem{E: expr.AddE(expr.C(sumCol+"@c"), expr.C(sumDeltaCol(j)+"Σ@d")), As: PostName(sumCol)},
			algebra.ProjItem{E: expr.AddE(expr.C(cntCol+"@c"), expr.C(cntDeltaCol(j)+"Σ@d")), As: PostName(cntCol)})
	}
	recNew := newGroups(cd, ocPre, idEqBoth(keys, "@d", "@c"), input, keys, ocAggs)
	updDS := DiffSchema{Type: DiffUpdate, Rel: cacheName, IDs: keys, Pre: pre, Post: post}
	insDS := insertSchemaFor(cacheName, cacheSchema)
	delDS := DiffSchema{Type: DiffDelete, Rel: cacheName, IDs: keys}
	updName, insName, delName := g.fresh("Δ"), g.fresh("Δ"), g.fresh("Δ")
	g.steps = append(g.steps,
		&ComputeStep{Name: updName, Diff: &updDS, Plan: algebra.NewProject(join, items), Ph: ph},
		&ComputeStep{Name: insName, Diff: &insDS, Plan: toDiff(recNew, insDS, nil), Ph: ph},
		&ComputeStep{Name: delName, Diff: &delDS, Plan: dead, Ph: ph},
		&ApplyStep{Table: cacheName, DiffName: delName, Diff: delDS, Ph: PhaseCacheUpdate},
		&ApplyStep{Table: cacheName, DiffName: updName, Diff: updDS, Ph: PhaseCacheUpdate},
		&ApplyStep{Table: cacheName, DiffName: insName, Diff: insDS, Ph: PhaseCacheUpdate})
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
// 7): recompute the groups of ak from `from` — the input's post-state, or
// the min/max multiset cache's — once into ΔR, then classify ΔR against
// the operator's Output into updates, inserts (new groups) and deletes
// (vanished groups). Each of the three diffs reads ΔK/ΔR by reference.
func (g *gen) classifyRecomputed(op *algebra.GroupBy, ak, from algebra.Node, output inputFn, ph Phase) []decl {
	keys := op.Keys
	var aggCols []string
	for _, a := range op.Aggs {
		aggCols = append(aggCols, a.As)
	}
	rec := g.share("ΔR", algebra.NewGroupBy(
		algebra.NewSemiJoin(from, renameAll(ak, "@k"), idEq(keys, "@k")), keys, op.Aggs), ph)
	outPre := renamedInput(output, rel.StatePre, "@o")

	var outs []decl
	// 3. Existing groups → ∆u (dummy updates for groups never in the view
	// are overestimation and cost only their index lookup).
	if len(aggCols) > 0 {
		updDS := DiffSchema{Type: DiffUpdate, Rel: "", IDs: keys, Post: aggCols}
		upd := toDiff(algebra.NewSemiJoin(rec, outPre, idEq(keys, "@o")), updDS, nil)
		outs = append(outs, decl{schema: updDS, plan: upd})
	}
	// 4. New groups → ∆+.
	insDS := insertSchemaFor("", op.Schema())
	ins := toDiff(algebra.NewAntiJoin(rec, outPre, idEq(keys, "@o")), insDS, nil)
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
