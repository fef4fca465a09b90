package ivm

import (
	"fmt"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Delta column names used by the incremental aggregation path: the change
// in the group's tuple count, which is a COUNT(*)'s delta, and one per
// other aggregate.
func deltaCol(j int) string { return fmt.Sprintf("Δx%d", j) }

const tupleCntCol = "Δcnt"

// countsTuples reports whether a is a COUNT(*), whose delta is Δcnt.
func countsTuples(a algebra.Agg) bool { return a.Fn == algebra.AggCount && a.Arg == nil }

// deltaOf names the delta column of op's j-th aggregate.
func deltaOf(op *algebra.GroupBy, j int) string {
	if countsTuples(op.Aggs[j]) {
		return tupleCntCol
	}
	return deltaCol(j)
}

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

// groupRules dispatches each input diff of a γ to one of three rules: the
// incremental rule (Tables 9 and 11, extended with group creation and
// deletion), which needs every aggregate to be a SUM or a COUNT, the guarded
// recompute of MIN and MAX (groupExtrema), or the general recompute rule
// (Table 7). Derived aggregates never get here as such — normalizeAggs
// rewrote them into plans over these. A diff is key-moving when it is an
// update whose post set intersects the grouping attributes (movesGroups): it
// moves tuples between groups.
//
//	aggregates       mode / input             key-moving diffs       other diffs
//	SUM/COUNT        any, none key-moving     —                      Tables 9/11
//	SUM/COUNT        ID mode, scan or cache   −old/+new rows in ΔG   Tables 9/11
//	MIN/MAX of cols  ID mode, stored input    —                      Table 7 on ΔX
//	anything else                             Table 7                Table 7
//
// In the second row a moved tuple contributes to the combined group delta
// twice, leaving its pre-group and entering its post-group (contribution),
// so no group is recomputed. Its contributions read the input by ID and
// its new groups by group key, so it needs an input the planner probes by
// index (probeableLeaf); any other input would be hashed whole at every
// probe (DESIGN.md §16). The third row (extremaGuardable) recomputes only
// the groups ΔX that lose an extremum; its input is the ordered-multiset
// cache normalizeAggs builds under every all-MIN/MAX γ in ID mode, whose
// updates change a multiplicity only and move no group.
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
	moving := false
	for _, in := range ins {
		moving = moving || movesGroups(op, in.schema)
	}
	if incremental && (!moving || !g.tupleMode && probeableLeaf(input(rel.StatePost))) {
		return g.groupIncremental(op, ins, input, output, ph)
	}
	if cols, ok := extremaGuardable(op, ins, input); ok && !g.tupleMode {
		return g.groupExtrema(op, ins, cols, input, output, ph), nil
	}
	ak := g.share("ΔK", affectedGroupKeys(op, ins, input), ph)
	return g.classifyRecomputed(op, ak, input, output, ph), nil
}

// movesGroups reports whether ds is a key-moving diff of op: an update
// whose post set intersects the grouping attributes.
func movesGroups(op *algebra.GroupBy, ds DiffSchema) bool {
	return ds.Type == DiffUpdate && len(rel.Intersect(op.Keys, ds.Post)) > 0
}

// kappaCol names the i-th input-tuple ID column carried by contribution
// rows; the combiner uses them to deduplicate overlapping contributions
// from different base-diff paths (e.g. a part deletion and a containment
// deletion both removing the same cache tuple).
func kappaCol(i int) string { return fmt.Sprintf("κ%d", i) }

// contribution builds, for the input diff ins[at], a plan producing one row
// per affected input tuple with the input tuple's full ID, the group key,
// and one delta column per aggregate: (κ̄, Ḡ, Δx_j, Δcnt). This realizes
// the ∆1/∆2/∆3 rules of Tables 9 and 11; partial-ID update diffs are
// expanded to per-tuple granularity by joining the input's pre-state on
// the diff's IDs — the central trick of the paper's Figure 7 script. A
// key-moving diff yields two rows per moved tuple, one leaving its
// pre-group, (κ̄, Ḡ_pre, −w_pre, −1), and one entering its post-group,
// (κ̄, Ḡ_post, +w_post, +1), its post image completed by what the other
// update diffs of the round carry for the tuple.
func (g *gen) contribution(op *algebra.GroupBy, ins []decl, at int, input inputFn) (algebra.Node, error) {
	in := ins[at]
	ds := in.schema
	childKey := op.Child.Schema().Key
	move := movesGroups(op, ds)

	// Columns the contribution needs from the input tuple: its values —
	// the group key and the aggregate arguments — and its ID.
	values := append([]string(nil), op.Keys...)
	for _, a := range op.Aggs {
		if a.Arg != nil {
			values = rel.Union(values, a.Arg.Cols())
		}
	}
	needed := rel.Union(values, childKey)

	// source plan + rename maps from child attrs to source columns.
	var source algebra.Node
	var preRen, postRen map[string]string
	fullID := len(ds.IDs) == len(childKey) && subsetOf(ds.IDs, childKey) && subsetOf(childKey, ds.IDs)
	// A base table's deletes and updates name only its own rows. A cache's
	// may name tuples the cache never held (Section 4's overestimation: an
	// anti-join passes its left input's deletes through), and a
	// contribution read from the diff alone would count them, so over a
	// cache they take their tuples from Input_pre.
	pre := input(rel.StatePre)
	_, isScan := pre.(*algebra.Scan)
	overDiffs := probeableLeaf(pre) && !isScan

	switch ds.Type {
	case DiffInsert:
		// ∆3 = ∆+ ▷Ī Input_pre (Table 9: skip tuples already present, so
		// repeated effective inserts stay idempotent).
		rec := reconstruct(in, rel.Union(needed, ds.IDs), rel.StatePost)
		inPre := renamedInput(input, rel.StatePre, "@e")
		source = algebra.NewAntiJoin(rec, inPre, idEq(ds.IDs, "@e"))
		preRen, postRen = identityMap(needed), identityMap(needed)

	case DiffDelete:
		if !overDiffs && canReconstruct(in, needed, rel.StatePre) {
			source = reconstruct(in, needed, rel.StatePre)
			preRen, postRen = identityMap(needed), identityMap(needed)
		} else {
			source = algebra.NewJoin(in.plan, renamedInput(input, rel.StatePre, "@in"), idEq(ds.IDs, "@in"))
			preRen = suffixMap(needed, "@in")
			postRen = preRen
		}

	case DiffUpdate:
		// An update that moves no tuple and touches no aggregate argument
		// leaves every group unchanged: contribute nothing.
		affectsAny := move
		for _, a := range op.Aggs {
			if a.Arg != nil && len(rel.Intersect(a.Arg.Cols(), ds.Post)) > 0 {
				affectsAny = true
			}
		}
		if !affectsAny {
			return nil, nil
		}
		if fullID && !overDiffs && canReconstruct(in, needed, rel.StatePre) && canReconstruct(in, needed, rel.StatePost) {
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

	// rows projects src to (κ̄, Ḡ, Δx_j, Δcnt), reading κ̄ and Ḡ through
	// ren. A SUM changes by the argument (NULL counts 0), a COUNT(x) by
	// whether it is non-NULL, COUNT(*) and the group's size by the tuple
	// itself: a tuple entering its group (cnt 1) adds its weight, one
	// leaving it (cnt −1) removes it, and an update that keeps the tuple
	// in its group (cnt 0) adds the change of every weight it touches.
	zero := expr.IntLit(0)
	weight := func(a algebra.Agg, ren map[string]string) expr.Expr {
		arg := expr.Rename(a.Arg, ren)
		if a.Fn == algebra.AggSum {
			return expr.Call("coalesce", arg, zero)
		}
		return expr.Call("notnull", arg)
	}
	rows := func(src algebra.Node, ren map[string]string, cnt int64) algebra.Node {
		var items []algebra.ProjItem
		for i, k := range childKey {
			items = append(items, algebra.ProjItem{E: expr.C(ren[k]), As: kappaCol(i)})
		}
		for _, k := range op.Keys {
			items = append(items, algebra.ProjItem{E: expr.C(ren[k]), As: k})
		}
		for j, a := range op.Aggs {
			if countsTuples(a) {
				continue
			}
			var delta expr.Expr = expr.IntLit(cnt)
			switch {
			case cnt > 0:
				delta = weight(a, ren)
			case cnt < 0:
				delta = expr.SubE(zero, weight(a, ren))
			case len(rel.Intersect(a.Arg.Cols(), ds.Post)) > 0:
				delta = expr.SubE(weight(a, postRen), weight(a, preRen))
			}
			items = append(items, algebra.ProjItem{E: delta, As: deltaCol(j)})
		}
		items = append(items, algebra.ProjItem{E: expr.IntLit(cnt), As: tupleCntCol})
		return algebra.NewProject(src, items)
	}

	switch {
	case ds.Type == DiffInsert:
		return rows(source, postRen, 1), nil
	case ds.Type == DiffDelete:
		return rows(source, preRen, -1), nil
	case !move:
		return rows(source, preRen, 0), nil
	}
	image := postImage(source, postRen, ins, at, needed, values)
	return unionPlans([]algebra.Node{rows(source, preRen, -1), rows(image, suffixMap(needed, "@v"), 1)}), nil
}

// postImage projects source to the post image of ins[at]'s tuples, each
// column c of cols (the input's key among them) read from ren[c] into c@v.
// That image takes the values the diff does not update from the pre-state,
// which is wrong for a tuple a rival diff updates in the same round — an
// update diff whose post set holds a column of watched that ins[at] does
// not update. Every rival overlays the post values it carries on the tuples
// it names: a left outer join by the rival's IDs, written as a join and an
// anti-join, that reads round bindings only.
func postImage(source algebra.Node, ren map[string]string, ins []decl, at int, cols, watched []string) algebra.Node {
	image := algebra.Node(algebra.NewProject(source, renameItems(cols, ren, "@v")))
	for j, o := range ins {
		if j == at || !rivals(ins[at].schema, o.schema, watched) {
			continue
		}
		sfx := fmt.Sprintf("@r%d", j)
		on := idEqBoth(o.schema.IDs, "@v", sfx)
		over := map[string]string{}
		for _, c := range cols {
			over[c] = c + "@v"
			if rel.Contains(o.schema.Post, c) {
				over[c] = PostName(c) + sfx
			}
		}
		hit := algebra.NewProject(algebra.NewJoin(image, renameAll(o.plan, sfx), on), renameItems(cols, over, "@v"))
		miss := algebra.NewAntiJoin(image, renameAll(algebra.Keep(o.plan, o.schema.IDs...), sfx), on)
		image = unionPlans([]algebra.Node{hit, miss})
	}
	return image
}

// rivals reports whether o is an update diff whose post set holds a column
// of watched that ds does not update.
func rivals(ds, o DiffSchema, watched []string) bool {
	return o.Type == DiffUpdate && len(rel.Intersect(rel.Minus(watched, ds.Post), o.Post)) > 0
}

// renameItems projects each name n, read from column ren[n], to n+sfx.
func renameItems(names []string, ren map[string]string, sfx string) []algebra.ProjItem {
	items := make([]algebra.ProjItem, len(names))
	for i, n := range names {
		items[i] = algebra.ProjItem{E: expr.C(ren[n]), As: n + sfx}
	}
	return items
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
// COUNT (Tables 9 and 11): it combines every input diff, key-moving ones
// included, into one per-group delta relation ΔG, joins it with the
// operator's Output once (ΔM) to update existing groups, and — as an
// extension over the paper, which "does not handle group
// creation/deletion" — inserts the groups ΔM did not match and deletes
// those whose tuple count reaches zero.
func (g *gen) groupIncremental(op *algebra.GroupBy, ins []decl, input inputFn, output inputFn, ph Phase) ([]decl, error) {
	// 1. Contributions from every diff, partitioned by diff kind so that
	// overlapping contributions from different base-diff paths can be
	// deduplicated — two paths deleting (or inserting) the same input tuple
	// yield identical rows and are collapsed — and pruned by κ̄: a move or
	// update contribution for a tuple that some path deletes or inserts is
	// dropped (the delete already accounts for the tuple's entire pre-state
	// value, the insert for its entire post-state value), and so is an
	// update contribution for a tuple that moves (the move's rows carry its
	// exact post image).
	byKind := map[DiffType][]algebra.Node{}
	var moves []algebra.Node
	for i, in := range ins {
		c, err := g.contribution(op, ins, i, input)
		if err != nil {
			return nil, err
		}
		switch {
		case c == nil:
		case movesGroups(op, in.schema):
			moves = append(moves, c)
		default:
			byKind[in.schema.Type] = append(byKind[in.schema.Type], c)
		}
	}
	if len(byKind) == 0 && len(moves) == 0 {
		return nil, nil
	}
	childKey := op.Child.Schema().Key
	var kcols []string
	for i := range childKey {
		kcols = append(kcols, kappaCol(i))
	}
	var allCols []string
	// union bag-unions one kind's contributions, collapsing duplicates.
	union := func(ps []algebra.Node, dedup bool) algebra.Node {
		if len(ps) == 0 {
			return nil
		}
		u := unionPlans(ps)
		if allCols == nil {
			allCols = u.Schema().Attrs
		}
		if dedup && len(ps) > 1 {
			u = dedupKeys(u, allCols)
		}
		return u
	}
	// without drops the rows of u whose κ̄ appears in by.
	without := func(u, by algebra.Node, sfx string) algebra.Node {
		if by == nil {
			return u
		}
		return algebra.NewAntiJoin(u, renameAll(algebra.Keep(by, kcols...), sfx), idEq(kcols, sfx))
	}
	dels := union(byKind[DiffDelete], true)
	insrt := union(byKind[DiffInsert], true)
	// Two moves of one tuple yield the same rows, as every move's post
	// image is exact: a move keeps only the tuples no earlier move holds.
	for k := range moves {
		for j := range k {
			moves[k] = without(moves[k], moves[j], fmt.Sprintf("@m%d", j))
		}
	}
	moved := union(moves, false)
	upds := union(byKind[DiffUpdate], false)
	// Insert contributions pass ∆3's anti-join with Input_pre, so their κ̄
	// keys are exactly the effectively-new tuples — the ones whose
	// post-state value the insert path fully accounts. A same-epoch update
	// of such a tuple (possible with full-tuple diffs, whose update rule
	// enumerates post-state join tuples) must not also contribute its
	// pre→post delta, nor a move's exact post image, read by partial IDs,
	// an entering row.
	var parts []algebra.Node
	for _, p := range []algebra.Node{dels, insrt} {
		if p != nil {
			parts = append(parts, p)
		}
	}
	if upds != nil {
		parts = append(parts, without(without(without(upds, dels, "@x"), insrt, "@y"), moved, "@z"))
	}
	if moved != nil {
		parts = append(parts, without(without(moved, dels, "@x"), insrt, "@y"))
	}

	// 2. The combined group-delta relation ΔG = γ_Ḡ, sum(Δ…), scheduled
	// before the input cache's (deferred) applies: it reads only pre-state,
	// so its probes reuse the cache's live post-state indexes.
	keys := op.Keys
	var cdAggs []algebra.Agg
	sumOf := func(c string) { cdAggs = append(cdAggs, algebra.Agg{Fn: algebra.AggSum, Arg: expr.C(c), As: c + "Σ"}) }
	for j, a := range op.Aggs {
		if !countsTuples(a) {
			sumOf(deltaCol(j))
		}
	}
	sumOf(tupleCntCol)
	cd := renameAll(g.share("ΔG", algebra.NewGroupBy(unionPlans(parts), keys, cdAggs), ph), "@d")
	// 3. The matched groups ΔM = ΔG ⋈Ḡ Output_pre: the operator's one
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
	cnt := "" // a COUNT(*): with one, ΔM alone tells which groups die
	for j, a := range op.Aggs {
		if countsTuples(a) {
			cnt = a.As
		}
		updDS.Pre, updDS.Post = append(updDS.Pre, a.As), append(updDS.Post, a.As)
		updItems = append(updItems, algebra.ProjItem{E: expr.C(a.As), As: PreName(a.As)})
		posts = append(posts, algebra.ProjItem{E: expr.AddE(expr.C(a.As), expr.C(deltaOf(op, j)+"Σ@d")), As: PostName(a.As)})
	}
	updItems = append(updItems, posts...)
	cntSum := expr.C(tupleCntCol + "Σ@d")

	// 4. ∆- for dying groups (extension): the matched groups whose
	// COUNT(*) reaches zero, the rest of ΔM being ∆u; without a COUNT(*),
	// the groups that received deletions and have no tuple left in the
	// input's post-state.
	var dead, alive algebra.Node = nil, matched
	if cnt != "" {
		empties := expr.Eq(expr.AddE(expr.C(cnt), cntSum), expr.IntLit(0))
		dead = algebra.Keep(algebra.NewSelect(matched, empties), keys...)
		alive = algebra.NewSelect(matched, expr.Not(empties))
	} else {
		delCandidates := projectSuffixToPlain(algebra.NewSelect(cd, expr.Lt(cntSum, expr.IntLit(0))), keys, "@d")
		dead = algebra.Keep(
			algebra.NewAntiJoin(delCandidates, renamedInput(input, rel.StatePost, "@s"), idEq(keys, "@s")),
			keys...)
	}
	updOut := algebra.NewProject(alive, updItems)

	// 5. ∆+ for newly created groups (extension): the groups of ΔG that
	// ΔM did not match — ΔG has one row per group, so ΔG ▷ ΔM equals
	// ΔG ▷ Output_pre and reads no stored table — and that gained tuples.
	// Their values are their deltas, except where a SUM's delta is 0: over
	// NULL arguments only, the SUM is NULL, so those groups are recomputed
	// from the input's post-state.
	born := algebra.NewSelect(algebra.NewAntiJoin(cd, algebra.Keep(matched, keys...), idEqBoth(keys, "@d", "")),
		expr.Gt(cntSum, expr.IntLit(0)))
	items := make([]algebra.ProjItem, 0, len(keys)+len(op.Aggs))
	for _, k := range keys {
		items = append(items, algebra.ProjItem{E: expr.C(k + "@d"), As: k})
	}
	var sums []expr.Expr
	for j, a := range op.Aggs {
		items = append(items, algebra.ProjItem{E: expr.C(deltaOf(op, j) + "Σ@d"), As: a.As})
		if a.Fn == algebra.AggSum {
			sums = append(sums, expr.Not(expr.Eq(expr.C(deltaCol(j)+"Σ@d"), expr.IntLit(0))))
		}
	}
	var news algebra.Node = algebra.NewProject(born, items)
	if len(sums) > 0 {
		numbers := expr.And(sums...)
		recount := algebra.NewGroupBy(
			algebra.NewSemiJoin(input(rel.StatePost),
				renameAll(projectSuffixToPlain(algebra.NewSelect(born, expr.Not(numbers)), keys, "@d"), "@k"), idEq(keys, "@k")),
			keys, op.Aggs)
		news = unionPlans([]algebra.Node{algebra.NewProject(algebra.NewSelect(born, numbers), items), recount})
	}
	delDS := DiffSchema{Type: DiffDelete, Rel: "", IDs: keys}

	return []decl{
		{schema: delDS, plan: dead},
		{schema: updDS, plan: updOut},
		insertOf("", op.Schema(), news),
	}, nil
}

// affectedGroupKeys builds the deduplicated union of every group key some
// diff of ins touches, reading pre and post images as the diff kind
// requires (step 1 of the general aggregation rule, Table 7). The result
// covers the pre- and the post-group of every tuple a diff touches; it may
// name more groups, never fewer.
func affectedGroupKeys(op *algebra.GroupBy, ins []decl, input inputFn) algebra.Node {
	keys := op.Keys
	childKey := op.Child.Schema().Key
	var keyPlans []algebra.Node
	for i, in := range ins {
		ds := in.schema
		// A diff that does not carry what it needs joins the input's
		// pre-state on its IDs to recover it — one join, whichever images
		// are read from it.
		var widened algebra.Node
		read := func(cols []string, st rel.State) (algebra.Node, map[string]string) {
			if canReconstruct(in, cols, st) {
				return reconstruct(in, cols, st), identityMap(cols)
			}
			if widened == nil {
				widened = algebra.NewJoin(in.plan, renamedInput(input, rel.StatePre, "@in"), idEq(ds.IDs, "@in"))
			}
			ren := map[string]string{}
			for _, c := range cols {
				ren[c] = c + "@in"
				if st == rel.StatePost && rel.Contains(ds.Post, c) {
					ren[c] = PostName(c)
				} else if rel.Contains(ds.IDs, c) {
					ren[c] = c
				}
			}
			return widened, ren
		}
		st := rel.StatePre
		if ds.Type == DiffInsert {
			st = rel.StatePost
		}
		src, ren := read(keys, st)
		keyPlans = append(keyPlans, algebra.NewProject(src, renameItems(keys, ren, "")))
		if !movesGroups(op, ds) {
			continue
		}
		// A moved tuple's post group, exact under the round's rival diffs
		// (postImage), which join on the input's key.
		cols := keys
		for j, o := range ins {
			if j != i && rivals(ds, o.schema, keys) {
				cols = rel.Union(keys, childKey)
			}
		}
		src, ren = read(cols, rel.StatePost)
		keyPlans = append(keyPlans, projectSuffixToPlain(postImage(src, ren, ins, i, cols, keys), keys, "@v"))
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
	rec := g.share("ΔR", algebra.NewGroupBy(
		algebra.NewSemiJoin(input(rel.StatePost), renameAll(ak, "@k"), idEq(keys, "@k")), keys, op.Aggs), ph)
	// 3. Existing groups → ∆u, read from ΔM = ΔR ⋉ Output_pre, the rule's
	// one Output probe (dummy updates for groups never in the view are
	// overestimation and cost only their index lookup).
	held := renamedInput(output, rel.StatePre, "@o") // the groups ∆+ leaves out
	var matched algebra.Node
	if len(op.Aggs) > 0 {
		matched = g.share("ΔM", algebra.NewSemiJoin(rec, held, idEq(keys, "@o")), ph)
		// ΔR has one row per group, so ΔR ▷ ΔM equals ΔR ▷ Output_pre
		// and reads no stored table.
		held = renameAll(algebra.Keep(matched, keys...), "@o")
	}
	return classify(op, rec, matched, held, ak)
}

// classify is steps 3–5 of Table 7 once Output has been probed: the rows of
// upd (rows of rec, nil for a γ without aggregates) are ∆u, the groups of
// rec that held (Output's groups among them, renamed @o) lacks are ∆+ (step
// 4), and the keys of gone that rec lacks are ∆- (step 5).
func classify(op *algebra.GroupBy, rec, upd, held, gone algebra.Node) []decl {
	keys := op.Keys
	var outs []decl
	if upd != nil {
		var aggCols []string
		for _, a := range op.Aggs {
			aggCols = append(aggCols, a.As)
		}
		updDS := DiffSchema{Type: DiffUpdate, Rel: "", IDs: keys, Post: aggCols}
		outs = append(outs, decl{schema: updDS, plan: toDiff(upd, updDS, nil)})
	}
	outs = append(outs, insertOf("", op.Schema(), algebra.NewAntiJoin(rec, held, idEq(keys, "@o"))))
	delDS := DiffSchema{Type: DiffDelete, Rel: "", IDs: keys}
	del := algebra.NewAntiJoin(gone, renameAll(algebra.Keep(rec, keys...), "@r"), idEq(keys, "@r"))
	return append(outs, decl{schema: delDS, plan: del})
}

// extremaGuardable reports whether groupExtrema maintains op over input, and
// returns the columns it reads of each input row, the grouping attributes and
// the aggregate arguments: every aggregate is a MIN or a MAX of a bare column,
// the input is stored, and every diff is an insert, a delete whose IDs carry
// those columns, or an update that changes none of them (a multiplicity).
func extremaGuardable(op *algebra.GroupBy, ins []decl, input inputFn) ([]string, bool) {
	if ref, ok := input(rel.StatePost).(*algebra.RelRef); !ok || !ref.Stored || len(op.Aggs) == 0 {
		return nil, false
	}
	cols := append([]string(nil), op.Keys...)
	for _, a := range op.Aggs {
		c, ok := a.Arg.(expr.Col)
		if !ok || a.Fn != algebra.AggMin && a.Fn != algebra.AggMax {
			return nil, false
		}
		cols = rel.Union(cols, []string{c.Name})
	}
	for _, in := range ins {
		ds := in.schema
		switch {
		case ds.Type == DiffInsert && canReconstruct(in, cols, rel.StatePost):
		case ds.Type == DiffDelete && subsetOf(cols, ds.IDs):
		case ds.Type == DiffUpdate && len(rel.Intersect(cols, ds.Post)) == 0:
		default:
			return nil, false
		}
	}
	return cols, true
}

// groupExtrema is the guarded recompute of a γ whose aggregates are MINs and
// MAXes (extremaGuardable; cols are the columns it reads of a diff row). MIN
// and MAX have no inverse, so a deleted extremum needs the input; every other
// change needs only the group's current row:
//
//  1. ΔK, the groups of the inserted and deleted rows. An update changes a
//     multiplicity only, and one that stays positive moves no extremum.
//  2. ΔM = ΔK ⋈ Output_pre, the rule's one Output probe: each group's
//     current row, its columns suffixed @o.
//  3. ΔX, the groups in which a deleted value is KeyEqual to the current
//     extremum of an aggregate over its column, or in which a deleted or an
//     inserted value cannot be ordered against it (Value.Compare fails, or
//     says equal without KeyEqual); and the all-NULL groups that lose a row,
//     which may die. A NULL argument is never an extremum otherwise: MIN and
//     MAX skip it. ΔX reads bindings only.
//  4. ΔR, one γ with the aggregates of op over the argument values of the
//     groups of ΔX in Input_post (Table 7's recompute), the current rows of
//     the other groups and the inserted values. Input_post holds the inserted
//     values already, and adding a value to MIN or MAX a second time after
//     its first never changes the result; the accumulator skips NULLs exactly
//     as a recompute does.
//  5. classify, with ∆u narrowed to the groups whose aggregates changed
//     under KeyEqual, ∆+ = ΔR ▷ ΔM and ∆- = ΔX ▷ ΔR.
func (g *gen) groupExtrema(op *algebra.GroupBy, ins []decl, cols []string, input, output inputFn, ph Phase) []decl {
	keys := op.Keys
	var changed []decl
	var dels, adds []algebra.Node // the deleted and the inserted rows, over cols
	for _, in := range ins {
		switch in.schema.Type {
		case DiffDelete:
			dels = append(dels, reconstruct(in, cols, rel.StatePre))
		case DiffInsert:
			adds = append(adds, reconstruct(in, cols, rel.StatePost))
		default:
			continue
		}
		changed = append(changed, in)
	}
	if len(changed) == 0 {
		return nil
	}
	ak := g.share("ΔK", affectedGroupKeys(op, changed, input), ph)
	matched := g.share("ΔM", algebra.NewJoin(ak, renamedInput(output, rel.StatePre, "@o"), idEq(keys, "@o")), ph)

	// Per aggregate, v is its argument in a diff row and e the current
	// extremum; unordered(v, e) holds when Compare does not order them
	// strictly, and only then can v be e or stand beside it undecided.
	var allNull, delHits, addHits, same []expr.Expr
	for _, a := range op.Aggs {
		v, e := a.Arg, expr.C(a.As+"@o")
		unordered := expr.Not(expr.Or(expr.Lt(v, e), expr.Gt(v, e)))
		allNull = append(allNull, expr.IsNull(e))
		delHits = append(delHits, expr.And(expr.Not(expr.IsNull(v)), unordered))
		addHits = append(addHits, expr.And(expr.Not(expr.IsNull(v)), expr.Not(expr.IsNull(e)),
			expr.Not(expr.Call("keyeq", v, e)), unordered))
		same = append(same, expr.Call("keyeq", expr.C(a.As), e))
	}
	delHit, addHit := expr.Or(expr.And(allNull...), expr.Or(delHits...)), expr.Or(addHits...)
	var rows algebra.Node // the diff rows that can put their group in ΔX
	var hits expr.Expr
	switch {
	case len(adds) == 0:
		rows, hits = unionPlans(dels), delHit
	case len(dels) == 0:
		rows, hits = unionPlans(adds), addHit
	default: // the branch column tells a deleted row (0) from an inserted one (1)
		isAdd := "#b"
		for rel.Contains(cols, isAdd) {
			isAdd += "#"
		}
		rows = algebra.NewUnionAll(isAdd, unionPlans(dels), unionPlans(adds))
		hits = expr.Or(expr.And(expr.Eq(expr.C(isAdd), expr.IntLit(0)), delHit),
			expr.And(expr.Eq(expr.C(isAdd), expr.IntLit(1)), addHit))
	}
	lost := g.share("ΔX", algebra.Keep(algebra.NewSemiJoin(matched, rows, expr.And(idEqBoth(keys, "@o", ""), hits)), keys...), ph)

	folds := make([]algebra.Agg, len(op.Aggs))
	argItems := renameItems(keys, identityMap(keys), "")
	curItems := renameItems(keys, identityMap(keys), "")
	for j, a := range op.Aggs {
		folds[j] = algebra.Agg{Fn: a.Fn, Arg: expr.C(a.As), As: a.As}
		argItems = append(argItems, algebra.ProjItem{E: a.Arg, As: a.As})
		curItems = append(curItems, algebra.ProjItem{E: expr.C(a.As + "@o"), As: a.As})
	}
	values := []algebra.Node{
		algebra.NewProject(algebra.NewSemiJoin(input(rel.StatePost), renameAll(lost, "@k"), idEq(keys, "@k")), argItems),
		algebra.NewProject(algebra.NewAntiJoin(matched, renameAll(lost, "@x"), idEq(keys, "@x")), curItems),
	}
	for _, r := range adds {
		values = append(values, algebra.NewProject(r, argItems))
	}
	rec := g.share("ΔR", algebra.NewGroupBy(unionPlans(values), keys, folds), ph)

	upd := algebra.NewSemiJoin(rec, matched, expr.And(idEq(keys, "@o"), expr.Not(expr.And(same...))))
	return classify(op, rec, upd, matched, lost)
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
