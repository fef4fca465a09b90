// Package algebra implements the logical relational algebra of QSPJADU —
// Selection, generalized Projection, Join, Aggregation, Antisemijoin and
// Union (plus semijoin and cross product as internal operators) — together
// with an index-aware evaluator over the rel storage layer.
//
// Every node carries a schema whose Key field holds the node's ID
// attributes per the paper's Table 1 ID inference rules. Plans whose
// projections would drop IDs can be repaired with EnsureIDs (pass 1 of the
// Δ-script generation algorithm).
package algebra

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Node is a relational algebra plan node. Plan nodes are immutable once
// built: a rewrite builds new nodes and may share every unchanged subtree,
// expression and slice with the plan it started from. The SQL front end
// relies on it — a statement bound into a cached shape template
// (internal/sqlview) shares all of the template but the nodes on the paths
// to its literals — and so do the nodes whose schema is derived from their
// children's (π, ⋈, ∪all): each derives it on the first Schema call and
// keeps it (schemaOnce). ivmlint's nodemut rule rejects a field write to
// such a node outside its composite literal.
type Node interface {
	// Schema returns the node's output schema; Schema().Key holds the
	// node's ID attributes (empty if IDs were lost by a projection and
	// EnsureIDs has not run).
	Schema() rel.Schema
	// Children returns the node's inputs, left before right.
	Children() []Node
	// String renders the subplan.
	String() string
}

// Scan reads a stored table, optionally under an alias. Its schema
// qualifies every attribute with the alias (or the table name), which
// doubles as base-attribute provenance for the Section 5 analysis.
type Scan struct {
	Table string
	Alias string
	// St selects pre- or post-state during a maintenance epoch.
	St     rel.State
	schema rel.Schema
	suffix string // appended to every attribute by Renamed
}

// NewScan builds a scan node given the stored table's (bare) schema.
func NewScan(table, alias string, tableSchema rel.Schema) *Scan {
	if alias == "" {
		alias = table
	}
	s := rel.NewSchema(rel.Qualify(alias, tableSchema.Attrs), rel.Qualify(alias, tableSchema.Key))
	return &Scan{Table: table, Alias: alias, schema: s}
}

// Schema implements Node.
func (s *Scan) Schema() rel.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string {
	out := "SCAN " + s.Table
	if s.Alias != s.Table {
		out += " AS " + s.Alias
	}
	if s.suffix != "" {
		out += "[" + s.suffix + "]"
	}
	return out
}

// Renamed returns a copy of the scan presenting each attribute with the
// given suffix appended. It is still a Scan, so the planner probes it by
// index like the plain scan.
func (s *Scan) Renamed(suffix string) *Scan {
	c := *s
	c.schema, c.suffix = suffixSchema(s.schema, suffix), s.suffix+suffix
	return &c
}

// BareAttr maps one of the scan's qualified (and possibly renamed)
// attribute names back to the stored table's bare attribute name.
func (s *Scan) BareAttr(qualified string) string {
	return strings.TrimSuffix(strings.TrimPrefix(qualified, s.Alias+"."), s.suffix)
}

// Select filters its child by a predicate.
type Select struct {
	Child Node
	Pred  expr.Expr
}

// NewSelect builds a selection, validating predicate columns.
func NewSelect(child Node, pred expr.Expr) *Select {
	mustHaveCols(child.Schema(), pred.Cols(), "selection predicate")
	return &Select{Child: child, Pred: pred}
}

// Schema implements Node.
func (s *Select) Schema() rel.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Select) String() string { return Op(s) + "(" + s.Child.String() + ")" }

// ProjItem is one output column of a generalized projection.
type ProjItem struct {
	E  expr.Expr
	As string
}

// Project is the generalized projection π with functions.
type Project struct {
	Child Node
	Items []ProjItem
	sch   schemaOnce
}

// NewProject builds a projection. The output key is the child's key if all
// its attributes survive as plain column references; otherwise the key is
// empty and EnsureIDs must repair the plan before IVM.
func NewProject(child Node, items []ProjItem) *Project {
	cs := child.Schema()
	seen := map[string]bool{}
	for _, it := range items {
		mustHaveCols(cs, it.E.Cols(), "projection item "+it.As)
		if it.As == "" {
			panic("algebra: projection item without output name")
		}
		if seen[it.As] {
			panic(fmt.Sprintf("algebra: duplicate projection output %q", it.As))
		}
		seen[it.As] = true
	}
	return &Project{Child: child, Items: items}
}

// Keep is a convenience building a plain column-keeping projection.
func Keep(child Node, cols ...string) *Project {
	items := make([]ProjItem, len(cols))
	for i, c := range cols {
		items[i] = ProjItem{E: expr.C(c), As: c}
	}
	return NewProject(child, items)
}

// Schema implements Node. The output key is the child's key mapped
// through the projection: each child key attribute must survive as a
// plain column reference (possibly renamed) for the key to carry over.
func (p *Project) Schema() rel.Schema { return p.sch.get(p.derive) }

func (p *Project) derive() rel.Schema {
	attrs := make([]string, len(p.Items))
	for i, it := range p.Items {
		attrs[i] = it.As
	}
	childKey := p.Child.Schema().Key
	key := p.keyMapping(childKey)
	var outKey []string
	if key != nil {
		outKey = make([]string, 0, len(key))
		for _, k := range childKey {
			outKey = append(outKey, key[k])
		}
	}
	return rel.NewSchema(attrs, outKey)
}

// KeyMapping returns, when the child's key survives the projection, the
// map from each child key attribute to its output column name; nil when
// some key attribute is dropped or computed away.
func (p *Project) KeyMapping() map[string]string { return p.keyMapping(p.Child.Schema().Key) }

func (p *Project) keyMapping(childKey []string) map[string]string {
	if len(childKey) == 0 {
		return nil
	}
	m := make(map[string]string, len(childKey))
	for _, k := range childKey {
		found := ""
		for _, it := range p.Items {
			if c, ok := it.E.(expr.Col); ok && c.Name == k {
				found = it.As
				if it.As == k {
					break // prefer the same-name copy when both exist
				}
			}
		}
		if found == "" {
			return nil
		}
		m[k] = found
	}
	return m
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// String implements Node.
func (p *Project) String() string { return Op(p) + "(" + p.Child.String() + ")" }

// Join is an inner theta-join; a cross product when Pred is TRUE.
type Join struct {
	Left, Right Node
	Pred        expr.Expr
	sch         schemaOnce
}

// NewJoin builds a join, validating disjoint schemas and predicate columns.
func NewJoin(l, r Node, pred expr.Expr) *Join {
	ls, rs := l.Schema(), r.Schema()
	checkDisjoint(ls, rs, "join")
	if pred == nil {
		pred = expr.True()
	}
	mustHavePairCols(ls, rs, pred.Cols(), "join predicate")
	return &Join{Left: l, Right: r, Pred: pred}
}

// Schema implements Node. Per Table 1, ID(R ⋈ S) = ID(R) ∪ ID(S).
func (j *Join) Schema() rel.Schema { return j.sch.get(j.derive) }

func (j *Join) derive() rel.Schema {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	attrs := append(append([]string(nil), ls.Attrs...), rs.Attrs...)
	var key []string
	if len(ls.Key) > 0 && len(rs.Key) > 0 {
		key = append(append([]string(nil), ls.Key...), rs.Key...)
	}
	return rel.NewSchema(attrs, key)
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string { return infix(j, j.Left, j.Right) }

// SemiJoin keeps the left tuples having at least one match on the right,
// or, as the antisemijoin (Anti), the left tuples having none; the
// antisemijoin captures negation/difference per the paper, and the
// semijoin is its dual (Table 13).
type SemiJoin struct {
	Left, Right Node
	Pred        expr.Expr
	Anti        bool
}

// NewSemiJoin builds a semijoin.
func NewSemiJoin(l, r Node, pred expr.Expr) *SemiJoin {
	mustHavePairCols(l.Schema(), r.Schema(), pred.Cols(), "semijoin predicate")
	return &SemiJoin{Left: l, Right: r, Pred: pred}
}

// NewAntiJoin builds an antisemijoin.
func NewAntiJoin(l, r Node, pred expr.Expr) *SemiJoin {
	s := NewSemiJoin(l, r, pred)
	s.Anti = true
	return s
}

// Schema implements Node. Per Table 1, ID(R ⋉ S) = ID(R ▷ S) = ID(R).
func (s *SemiJoin) Schema() rel.Schema { return s.Left.Schema() }

// Children implements Node.
func (s *SemiJoin) Children() []Node { return []Node{s.Left, s.Right} }

// String implements Node.
func (s *SemiJoin) String() string { return infix(s, s.Left, s.Right) }

// AggFn names an aggregation function.
type AggFn string

// The supported aggregation functions. Sum, Count and Avg have dedicated
// incremental i-diff rules (Tables 9, 11, 12); Min and Max use the general
// group-recompute rule (Table 7).
const (
	AggSum   AggFn = "sum"
	AggCount AggFn = "count"
	AggAvg   AggFn = "avg"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
)

// Agg is one aggregate output of a group-by.
type Agg struct {
	Fn  AggFn
	Arg expr.Expr // nil means COUNT(*)
	As  string
}

// GroupBy groups its child by key columns and computes aggregates.
type GroupBy struct {
	Child Node
	Keys  []string
	Aggs  []Agg
}

// NewGroupBy builds an aggregation node. Per Table 1, its IDs are the
// grouping attributes.
func NewGroupBy(child Node, keys []string, aggs []Agg) *GroupBy {
	mustHaveCols(child.Schema(), keys, "group-by keys")
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for _, a := range aggs {
		if a.Arg != nil {
			mustHaveCols(child.Schema(), a.Arg.Cols(), "aggregate "+a.As)
		} else if a.Fn != AggCount {
			panic(fmt.Sprintf("algebra: aggregate %s requires an argument", a.Fn))
		}
		if a.As == "" {
			panic("algebra: aggregate without output name")
		}
		if seen[a.As] {
			panic(fmt.Sprintf("algebra: duplicate aggregate output %q", a.As))
		}
		seen[a.As] = true
	}
	return &GroupBy{Child: child, Keys: append([]string(nil), keys...), Aggs: aggs}
}

// Schema implements Node.
func (g *GroupBy) Schema() rel.Schema {
	attrs := append([]string(nil), g.Keys...)
	for _, a := range g.Aggs {
		attrs = append(attrs, a.As)
	}
	return rel.NewSchema(attrs, g.Keys)
}

// Children implements Node.
func (g *GroupBy) Children() []Node { return []Node{g.Child} }

// String implements Node.
func (g *GroupBy) String() string { return Op(g) + "(" + g.Child.String() + ")" }

// UnionAll is the bag union of its branches, which have identical attribute
// lists. Tagged (BranchAttr set), it is the special union of the paper's
// Section 2: it appends the branch attribute, i on the rows of branch i, so
// output IDs remain keys. Untagged, it appends nothing and has no key: the
// γ rules unite their per-diff contributions this way, and pass 4 turns a
// tagged union under a π that does not read its branch attribute into one.
type UnionAll struct {
	Branches   []Node
	BranchAttr string
	sch        schemaOnce
}

// NewUnionAll builds the union of its branches, tagged with
// branchAttr unless it is "". An untagged union's branches that are
// untagged unions contribute their own branches, so no tower is built.
func NewUnionAll(branchAttr string, branches ...Node) *UnionAll {
	attrs := branches[0].Schema().Attrs
	for _, b := range branches[1:] {
		if bs := b.Schema(); !slices.Equal(bs.Attrs, attrs) {
			panic(fmt.Sprintf("algebra: union branch schemas differ: %v vs %v", attrs, bs.Attrs))
		}
	}
	if slices.Contains(attrs, branchAttr) {
		panic(fmt.Sprintf("algebra: branch attribute %q collides with the branches' schema", branchAttr))
	}
	return &UnionAll{Branches: flatten(branchAttr, branches), BranchAttr: branchAttr}
}

// flatten returns the branches of a union tagged with branchAttr: under an
// untagged one, an untagged union among them is replaced by its branches.
func flatten(branchAttr string, branches []Node) []Node {
	out := make([]Node, 0, len(branches))
	for _, b := range branches {
		if u, ok := b.(*UnionAll); ok && branchAttr == "" && u.BranchAttr == "" {
			out = append(out, u.Branches...)
		} else {
			out = append(out, b)
		}
	}
	return out
}

// Schema implements Node. Per Table 1, a tagged union's ID is the union of
// its branches' IDs and {b}.
func (u *UnionAll) Schema() rel.Schema { return u.sch.get(u.derive) }

func (u *UnionAll) derive() rel.Schema {
	attrs := u.Branches[0].Schema().Attrs
	if u.BranchAttr == "" {
		return rel.NewSchema(attrs, nil)
	}
	var key []string
	for _, b := range u.Branches {
		bk := b.Schema().Key
		if len(bk) == 0 {
			key = nil
			break
		}
		key = rel.Union(key, bk)
	}
	if key != nil {
		key = append(key, u.BranchAttr)
	}
	return rel.NewSchema(append(slices.Clip(attrs), u.BranchAttr), key)
}

// Children implements Node.
func (u *UnionAll) Children() []Node { return u.Branches }

// String implements Node.
func (u *UnionAll) String() string { return infix(u, u.Branches...) }

// RelRef is a leaf referring to a named relation bound at evaluation time
// through the Env: diff tables, cache contents, or precomputed inputs. It
// is how Δ-script plans mention ∆-tables, Input_pre/post, Output and
// caches (Section 4).
type RelRef struct {
	Name   string
	Sch    rel.Schema
	Stored bool // when true, Env binds it to a stored table (accesses are charged)
	St     rel.State
	// Bare optionally maps Sch.Attrs positions back to the stored table's
	// attribute names, letting a stored ref present renamed columns while
	// remaining index-probeable. Empty means names match.
	Bare []string
}

// NewRelRef builds a reference to an in-memory (derived) relation.
func NewRelRef(name string, schema rel.Schema) *RelRef {
	return &RelRef{Name: name, Sch: schema}
}

// NewStoredRef builds a reference to a stored table (cache/view) in the
// given state; its accesses are charged to the cost counter.
func NewStoredRef(name string, schema rel.Schema, st rel.State) *RelRef {
	return &RelRef{Name: name, Sch: schema, Stored: true, St: st}
}

// Renamed returns a copy of the ref presenting each attribute with the
// given suffix appended, keeping index-probeability via the Bare mapping.
func (r *RelRef) Renamed(suffix string) *RelRef {
	bare := r.Bare
	if len(bare) == 0 {
		bare = append([]string(nil), r.Sch.Attrs...)
	}
	return &RelRef{
		Name:   r.Name,
		Sch:    suffixSchema(r.Sch, suffix),
		Stored: r.Stored,
		St:     r.St,
		Bare:   bare,
	}
}

// suffixSchema appends suffix to every attribute and key of s.
func suffixSchema(s rel.Schema, suffix string) rel.Schema {
	add := func(names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = n + suffix
		}
		return out
	}
	return rel.NewSchema(add(s.Attrs), add(s.Key))
}

// Schema implements Node.
func (r *RelRef) Schema() rel.Schema { return r.Sch }

// Children implements Node.
func (r *RelRef) Children() []Node { return nil }

// String implements Node.
func (r *RelRef) String() string {
	if r.Stored {
		return fmt.Sprintf("@%s[%s]", r.Name, r.St)
	}
	return "@" + r.Name
}

// Empty is a leaf that always evaluates to the empty relation. The
// semantic minimizer introduces it when an i-diff constraint proves a
// subplan vacuous (e.g. ∆-R ⋈ R_post = ∅ by constraint C2).
type Empty struct{ Sch rel.Schema }

// Schema implements Node.
func (e *Empty) Schema() rel.Schema { return e.Sch }

// Children implements Node.
func (e *Empty) Children() []Node { return nil }

// String implements Node.
func (e *Empty) String() string { return "∅" }

// Op renders n's operator without its inputs — σ[p], π[items], ⋈[p], ⋉[p]
// or ▷[p], γ[keys; aggs], ∪all or ∪all[b] — and a leaf whole. A node
// renders as its Op over its inputs' renderings: σ, π and γ put theirs in
// parentheses after it, ⋈, ⋉/▷ and ∪all write it between theirs (infix).
func Op(n Node) string {
	switch x := n.(type) {
	case *Select:
		return "σ[" + x.Pred.String() + "]"
	case *Project:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = it.As
			if c, ok := it.E.(expr.Col); !ok || c.Name != it.As {
				parts[i] = it.E.String() + "→" + it.As
			}
		}
		return "π[" + strings.Join(parts, ", ") + "]"
	case *Join:
		return "⋈[" + x.Pred.String() + "]"
	case *SemiJoin:
		if x.Anti {
			return "▷[" + x.Pred.String() + "]"
		}
		return "⋉[" + x.Pred.String() + "]"
	case *GroupBy:
		parts := make([]string, len(x.Aggs))
		for i, a := range x.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			parts[i] = string(a.Fn) + "(" + arg + ")→" + a.As
		}
		return "γ[" + strings.Join(x.Keys, ",") + "; " + strings.Join(parts, ",") + "]"
	case *UnionAll:
		if x.BranchAttr == "" {
			return "∪all"
		}
		return "∪all[" + x.BranchAttr + "]"
	}
	return n.String()
}

// infix renders n's inputs in parentheses with n's Op between each two.
func infix(n Node, inputs ...Node) string {
	parts := make([]string, len(inputs))
	for i, in := range inputs {
		parts[i] = in.String()
	}
	return "(" + strings.Join(parts, " "+Op(n)+" ") + ")"
}

// schemaOnce keeps the schema a node derives from its fields and its
// children's schemas. Racing first calls derive equal schemas and either is
// kept. The kept slices are clipped, so a caller appending to them copies.
type schemaOnce struct{ p atomic.Pointer[rel.Schema] }

func (o *schemaOnce) get(derive func() rel.Schema) rel.Schema {
	if s := o.p.Load(); s != nil {
		return *s
	}
	s := derive()
	s.Attrs, s.Key = slices.Clip(s.Attrs), slices.Clip(s.Key)
	o.p.Store(&s)
	return s
}

func mustHaveCols(s rel.Schema, cols []string, what string) {
	for _, c := range cols {
		if !s.Has(c) {
			panic(fmt.Sprintf("algebra: %s references unknown column %q (schema %v)", what, c, s.Attrs))
		}
	}
}

func mustHavePairCols(l, r rel.Schema, cols []string, what string) {
	for _, c := range cols {
		if !l.Has(c) && !r.Has(c) {
			panic(fmt.Sprintf("algebra: %s references unknown column %q (schemas %v, %v)", what, c, l.Attrs, r.Attrs))
		}
	}
}

func checkDisjoint(l, r rel.Schema, what string) {
	for _, a := range r.Attrs {
		if l.Has(a) {
			panic(fmt.Sprintf("algebra: %s children share attribute %q; alias one side", what, a))
		}
	}
}
