package algebra

import (
	"fmt"

	"idivm/internal/expr"
	"idivm/internal/rel"
)

// EnsureIDs implements pass 1 of the Δ-script generation algorithm
// (Section 4, Table 1): it checks that every subplan's output schema
// contains the ID attributes inferred for its operator and, where a
// projection would drop them, extends the projection to keep them. As the
// paper notes, this widens the view but never changes its cardinality.
//
// It returns the (possibly rewritten) plan, or an error if IDs cannot be
// established (e.g. a projection renamed a key attribute away).
func EnsureIDs(n Node) (Node, error) {
	switch x := n.(type) {
	case *Scan, *RelRef:
		if len(n.Schema().Key) == 0 {
			return nil, fmt.Errorf("algebra: leaf %s has no key/IDs", n)
		}
		return n, nil
	case *Project:
		c, err := EnsureIDs(x.Child)
		if err != nil {
			return nil, err
		}
		items := append([]ProjItem(nil), x.Items...)
		// A key attribute survives if some item is a plain (possibly
		// renaming) reference to it; otherwise append a same-name copy.
		outNames := map[string]bool{}
		have := map[string]bool{}
		for _, it := range items {
			outNames[it.As] = true
			if col, ok := it.E.(expr.Col); ok {
				have[col.Name] = true
			}
		}
		for _, k := range c.Schema().Key {
			if have[k] {
				continue
			}
			if outNames[k] {
				return nil, fmt.Errorf("algebra: projection output %q shadows ID attribute with a computed value", k)
			}
			items = append(items, ProjItem{E: expr.C(k), As: k})
		}
		return NewProject(c, items), nil
	case *Select, *Join, *SemiJoin, *GroupBy, *UnionAll:
		if u, ok := n.(*UnionAll); ok && u.BranchAttr == "" {
			return nil, fmt.Errorf("algebra: union %s has no branch attribute, so no IDs", n)
		}
		var err error
		out := MapChildren(n, func(c Node) Node {
			if err == nil {
				c, err = EnsureIDs(c)
			}
			return c
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("algebra: EnsureIDs: unknown node type %T", n)
	}
}

// NaturalJoin joins two subplans on equality of every attribute pair whose
// bare (unqualified) names coincide, keeping both columns. It fails if no
// shared attribute exists, since that would silently be a cross product.
func NaturalJoin(l, r Node) (*Join, error) {
	pred := NaturalJoinPred(l, r)
	if expr.IsTrueLit(pred) {
		return nil, fmt.Errorf("algebra: natural join of %s and %s has no shared attributes", l, r)
	}
	return NewJoin(l, r, pred), nil
}

// NaturalJoinPred builds the natural-join predicate between two subplans:
// the conjunction of equalities over attributes with identical bare names.
func NaturalJoinPred(l, r Node) expr.Expr {
	ls, rs := l.Schema(), r.Schema()
	var terms []expr.Expr
	for _, la := range ls.Attrs {
		_, lb := rel.BaseAttr(la)
		for _, ra := range rs.Attrs {
			_, rb := rel.BaseAttr(ra)
			if lb == rb {
				terms = append(terms, expr.Eq(expr.C(la), expr.C(ra)))
			}
		}
	}
	return expr.And(terms...)
}

// MapChildren rebuilds n over f(child) for each of its children, calling f
// on them left before right; a leaf (or a node of an unknown type) is
// returned as it is. An untagged union flattens the untagged unions f
// returns for its branches, as NewUnionAll does.
func MapChildren(n Node, f func(Node) Node) Node {
	switch x := n.(type) {
	case *Select:
		return &Select{Child: f(x.Child), Pred: x.Pred}
	case *Project:
		return &Project{Child: f(x.Child), Items: x.Items}
	case *GroupBy:
		return &GroupBy{Child: f(x.Child), Keys: x.Keys, Aggs: x.Aggs}
	case *Join:
		return &Join{Left: f(x.Left), Right: f(x.Right), Pred: x.Pred}
	case *SemiJoin:
		return &SemiJoin{Left: f(x.Left), Right: f(x.Right), Pred: x.Pred, Anti: x.Anti}
	case *UnionAll:
		bs := make([]Node, len(x.Branches))
		for i, b := range x.Branches {
			bs[i] = f(b)
		}
		return &UnionAll{Branches: flatten(x.BranchAttr, bs), BranchAttr: x.BranchAttr}
	}
	return n
}

// Walk applies fn to every node of the plan in pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// Scans returns every Scan leaf of the plan in pre-order.
func Scans(n Node) []*Scan {
	var out []*Scan
	Walk(n, func(m Node) {
		if s, ok := m.(*Scan); ok {
			out = append(out, s)
		}
	})
	return out
}

// TouchesStored reports whether evaluating the plan reads any stored data
// (a Scan or a stored RelRef). Plans over pure in-memory bindings — diff
// instances — are free under the cost model, so evaluating them first and
// short-circuiting on emptiness keeps no-op maintenance rounds free.
func TouchesStored(n Node) bool {
	found := false
	Walk(n, func(m Node) {
		switch x := m.(type) {
		case *Scan:
			found = true
		case *RelRef:
			if x.Stored {
				found = true
			}
		}
	})
	return found
}

// BaseTables returns the distinct table names scanned by the plan.
func BaseTables(n Node) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range Scans(n) {
		if !seen[s.Table] {
			seen[s.Table] = true
			out = append(out, s.Table)
		}
	}
	return out
}
