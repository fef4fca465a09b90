package ivm_test

import (
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/ivm"
)

// renamedScan returns a π of pure renames (column references, at least
// one renamed) directly over a Scan in plan, or nil. Such a π hides the
// scan from the planner, so a join or semijoin over it hashes the whole
// table where Scan.Renamed would be probed by index.
func renamedScan(plan algebra.Node) algebra.Node {
	var found algebra.Node
	algebra.Walk(plan, func(n algebra.Node) {
		p, ok := n.(*algebra.Project)
		if !ok || found != nil {
			return
		}
		if _, scan := p.Child.(*algebra.Scan); !scan {
			return
		}
		renames := false
		for _, it := range p.Items {
			c, ok := it.E.(expr.Col)
			if !ok {
				return
			}
			renames = renames || c.Name != it.As
		}
		if renames {
			found = p
		}
	})
	return found
}

// TestNoRenamedScanInScripts: the rules rename a base-table input with
// Scan.Renamed, never with a π over the Scan, in every script of
// repositoryScripts.
func TestNoRenamedScanInScripts(t *testing.T) {
	for _, c := range repositoryScripts(t) {
		for _, st := range c.script.Steps {
			if cs, ok := st.(*ivm.ComputeStep); ok {
				if p := renamedScan(cs.Plan); p != nil {
					t.Errorf("%s: %s renames a scan with a π: %s", c.label, cs.Name, p)
				}
			}
		}
	}
}
