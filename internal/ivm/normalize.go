package ivm

import (
	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// minMaxMultCol is the multiplicity column of the ordered-multiset cache.
const minMaxMultCol = "#mult"

// normalizeAggs rewrites the derived aggregates of every γ in the plan
// into compositions the two γ rules maintain (groupRules), so that they
// need no rule of their own. It runs between pass 1 and rule
// instantiation; the view keeps its schema, and the inner γ of either
// rewrite is an interior γ like any other, which groupNode materializes
// as a cache in ID mode.
//
//   - AVG(x) AS a, in both modes: π[…, a#sum / a#cnt AS a] over the same γ
//     with SUM(coalesce(x, 0)) AS a#sum, COUNT(x) AS a#cnt in a's place —
//     the operator cache of Table 12. The coalesce keeps a#sum a plain
//     number that deltas add to and subtract from; a group without a
//     non-NULL x has a#cnt = 0 and the division yields NULL.
//   - every aggregate a MIN or MAX with an argument, in ID mode with caches
//     on: the same γ over γ_{Ḡ∪v̄}[COUNT(*) AS #mult], v̄ the argument
//     columns — the ordered-multiset cache. MIN and MAX are
//     duplicate-insensitive, so recomputing a group from it is exact and
//     reads one row per distinct value instead of one per input tuple, and
//     the γ above it recomputes only the groups that lose an extremum
//     (groupExtrema): the cache's diffs carry Ḡ and v̄ as IDs. Without
//     caches the inner γ would be recomputed from the base tables every
//     round, so tuple mode and NoCache keep the plain γ.
func (g *gen) normalizeAggs(n algebra.Node) algebra.Node {
	n = algebra.MapChildren(n, g.normalizeAggs)
	op, ok := n.(*algebra.GroupBy)
	if !ok || len(op.Aggs) == 0 {
		return n
	}
	// A hidden column must not shadow one the γ already has: a quoted SQL
	// identifier may contain '#'.
	hidden := func(name string, taken rel.Schema) string {
		for taken.Has(name) {
			name += "#"
		}
		return name
	}
	var vcols []string
	var aggs []algebra.Agg
	var items []algebra.ProjItem
	for _, k := range op.Keys {
		items = append(items, algebra.ProjItem{E: expr.C(k), As: k})
	}
	allMinMax, anyAvg := true, false
	for _, a := range op.Aggs {
		item := algebra.ProjItem{E: expr.C(a.As), As: a.As}
		switch {
		case a.Fn == algebra.AggAvg:
			sum, cnt := hidden(a.As+"#sum", op.Schema()), hidden(a.As+"#cnt", op.Schema())
			aggs = append(aggs,
				algebra.Agg{Fn: algebra.AggSum, Arg: expr.Call("coalesce", a.Arg, expr.IntLit(0)), As: sum},
				algebra.Agg{Fn: algebra.AggCount, Arg: a.Arg, As: cnt})
			item.E = expr.DivE(expr.C(sum), expr.C(cnt))
			allMinMax, anyAvg = false, true
		case (a.Fn == algebra.AggMin || a.Fn == algebra.AggMax) && a.Arg != nil:
			aggs = append(aggs, a)
			vcols = rel.Union(vcols, a.Arg.Cols())
		default:
			aggs = append(aggs, a)
			allMinMax = false
		}
		items = append(items, item)
	}
	switch {
	case anyAvg:
		return algebra.NewProject(algebra.NewGroupBy(op.Child, op.Keys, aggs), items)
	case allMinMax && !g.tupleMode && !g.opts.NoCache:
		multiset := algebra.NewGroupBy(op.Child, rel.Union(append([]string(nil), op.Keys...), vcols),
			[]algebra.Agg{{Fn: algebra.AggCount, As: hidden(minMaxMultCol, op.Child.Schema())}})
		return algebra.NewGroupBy(multiset, op.Keys, op.Aggs)
	}
	return n
}
