package ivm

import (
	"fmt"
	"sort"
	"strings"

	"idivm/internal/algebra"
	"idivm/internal/rel"
)

// BaseDiffSchemas is the output of the base-table i-diff schema generator:
// the diff schemas to populate for each base table of a view.
type BaseDiffSchemas map[string][]DiffSchema

// Tables returns the base table names in sorted order. Every iteration over
// the map that feeds script generation, rendering, or instance collection
// must go through this accessor so scripts are byte-stable across runs
// (Go's map iteration order is deliberately randomized).
func (b BaseDiffSchemas) Tables() []string {
	out := make([]string, 0, len(b))
	for table := range b { //ivmlint:allow maprange
		out = append(out, table)
	}
	sort.Strings(out)
	return out
}

// GenerateBaseDiffSchemas implements the Section 5 schema generator. For
// each base table R(Ī, Ā) of the plan it creates:
//
//   - one insert i-diff ∆+R(Ī, Āpost) and one delete i-diff ∆-R(Ī, Āpre)
//     (pre-state values can only make the Δ-script more efficient);
//   - one update i-diff per conditional attribute set C_op — the non-key
//     attributes of R mentioned in the condition of an operator op of the
//     plan (selections, join/semijoin/antisemijoin predicates, grouping
//     keys) — carrying post-state values for exactly those attributes;
//   - one update i-diff for the non-conditional attributes NC of R.
//
// All update i-diffs carry the full pre-state Ā, which the propagation
// rules exploit to avoid base-table accesses (the "blue" rule variants of
// Tables 6, 8, 10, 13).
func GenerateBaseDiffSchemas(plan algebra.Node, tableSchema func(string) (rel.Schema, error)) (BaseDiffSchemas, error) {
	condSets := conditionalSets(plan, tableSchema)

	out := BaseDiffSchemas{}
	tables := map[string]bool{}
	var tableOrder []string
	for _, s := range algebra.Scans(plan) {
		if !tables[s.Table] {
			tables[s.Table] = true
			tableOrder = append(tableOrder, s.Table)
		}
	}

	for _, table := range tableOrder {
		ts, err := tableSchema(table)
		if err != nil {
			return nil, fmt.Errorf("ivm: base table %q: %w", table, err)
		}
		nonKey := ts.NonKey()

		schemas := []DiffSchema{
			{Type: DiffInsert, Rel: table, IDs: append([]string(nil), ts.Key...), Post: append([]string(nil), nonKey...)},
			{Type: DiffDelete, Rel: table, IDs: append([]string(nil), ts.Key...), Pre: append([]string(nil), nonKey...)},
		}

		// Conditional update schemas, deduplicated by post set.
		seen := map[string]bool{}
		var conditional []string // all conditional attrs of this table
		for _, cs := range condSets {
			attrs := cs[table]
			if len(attrs) == 0 {
				continue
			}
			sorted := append([]string(nil), attrs...)
			sort.Strings(sorted)
			sig := strings.Join(sorted, "\x00")
			for _, a := range attrs {
				if !rel.Contains(conditional, a) {
					conditional = append(conditional, a)
				}
			}
			if seen[sig] {
				continue
			}
			seen[sig] = true
			schemas = append(schemas, DiffSchema{
				Type: DiffUpdate, Rel: table,
				IDs:  append([]string(nil), ts.Key...),
				Pre:  append([]string(nil), nonKey...),
				Post: attrs,
			})
		}

		// Non-conditional update schema.
		nc := rel.Minus(nonKey, conditional)
		if len(nc) > 0 {
			schemas = append(schemas, DiffSchema{
				Type: DiffUpdate, Rel: table,
				IDs:  append([]string(nil), ts.Key...),
				Pre:  append([]string(nil), nonKey...),
				Post: nc,
			})
		}
		out[table] = schemas
	}
	return out, nil
}

// conditionalSets collects the C_op sets of the plan: for every operator
// with a condition (selections, join/semijoin/antisemijoin predicates,
// grouping keys), the non-key attributes of each base table it mentions,
// as table → bare attributes. Operators mentioning none are left out.
func conditionalSets(plan algebra.Node, tableSchema func(string) (rel.Schema, error)) []map[string][]string {
	aliasTable := map[string]string{}
	for _, s := range algebra.Scans(plan) {
		aliasTable[s.Alias] = s.Table
	}
	var sets []map[string][]string
	add := func(cols []string) {
		cs := map[string][]string{}
		for _, c := range cols {
			alias, bare := rel.BaseAttr(c)
			t, found := aliasTable[alias]
			if !found {
				continue
			}
			ts, err := tableSchema(t)
			if err != nil || rel.Contains(ts.Key, bare) || !ts.Has(bare) {
				continue
			}
			if !rel.Contains(cs[t], bare) {
				cs[t] = append(cs[t], bare)
			}
		}
		if len(cs) > 0 {
			sets = append(sets, cs)
		}
	}
	algebra.Walk(plan, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Select:
			add(x.Pred.Cols())
		case *algebra.Join:
			add(x.Pred.Cols())
		case *algebra.SemiJoin:
			add(x.Pred.Cols())
		case *algebra.GroupBy:
			add(x.Keys)
		}
	})
	return sets
}

// ConditionalAttrs returns, for inspection and tests, the conditional
// attributes of each base table of the plan (the union of the C_op sets).
func ConditionalAttrs(plan algebra.Node, tableSchema func(string) (rel.Schema, error)) (map[string][]string, error) {
	out := map[string][]string{}
	for _, cs := range conditionalSets(plan, tableSchema) {
		for t, attrs := range cs { //ivmlint:allow maprange — per-table unions are independent
			out[t] = rel.Union(out[t], attrs)
		}
	}
	return out, nil
}
