// Package nodemut is the seeded fixture for the nodemut analyzer: one
// deliberate violation, one blessed suppression, and the writes it leaves
// alone — a composite literal, a semijoin's Anti flag and a local type of
// the same name.
package nodemut

import (
	"idivm/internal/algebra"
	"idivm/internal/expr"
)

func rename(p *algebra.Project) {
	p.Items[0].As = "renamed" // violation: the kept schema still has the old name
}

func build(l, r algebra.Node, pred expr.Expr) algebra.Node {
	j := &algebra.Join{Left: l, Right: r, Pred: pred} // a literal: no finding
	s := algebra.NewSemiJoin(j, r, pred)
	s.Anti = true // a semijoin's schema is its left child's: no finding
	u := algebra.NewUnionAll("", j, s)
	//ivmlint:allow nodemut — fixture bless
	u.Branches[1] = j
	return u
}

// Project is a local type, not the algebra node.
type Project struct{ Items []string }

func local(p *Project) { p.Items = nil }
