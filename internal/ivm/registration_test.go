package ivm_test

import (
	"fmt"
	"slices"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/ivm"
)

// TestRegistrationMatchesRecompute registers every plan of the script
// corpus in ID mode, in tuple mode and under NoCache and checks each view
// against its recomputation from the base tables before any round:
// RegisterView loads a view from its caches (Script.CachedPlan), and
// CheckConsistent evaluates the plan as written. It also checks every
// schema a plan node of the script keeps against the schema of the same
// tree rebuilt through the constructors.
func TestRegistrationMatchesRecompute(t *testing.T) {
	configs := []struct {
		name string
		mode ivm.Mode
		o    ivm.GenOptions
	}{{"id", ivm.ModeID, ivm.GenOptions{}}, {"tuple", ivm.ModeTuple, ivm.GenOptions{}}, {"nocache", ivm.ModeID, ivm.GenOptions{NoCache: true}}}
	corpus := scriptCorpus(t)
	for i, c := range corpus {
		for _, cfg := range configs {
			name := fmt.Sprintf("reg%d_%s", i, cfg.name)
			sys := ivm.NewSystem(c.d)
			v, err := sys.RegisterView(name, c.plan, cfg.mode, cfg.o)
			if err != nil {
				t.Fatalf("%s %s: %v\nplan: %s", c.name, cfg.name, err, c.plan)
			}
			if err := sys.CheckConsistent(name); err != nil {
				t.Fatalf("%s %s: registered view differs from its recomputation: %v\nloaded from: %s",
					c.name, cfg.name, err, v.Script.CachedPlan)
			}
			plans := []algebra.Node{v.Script.ViewPlan, v.Script.CachedPlan}
			for _, cd := range v.Script.Caches {
				plans = append(plans, cd.Plan)
			}
			for _, st := range v.Script.Steps {
				if cs, ok := st.(*ivm.ComputeStep); ok {
					plans = append(plans, cs.Plan)
				}
			}
			for _, p := range plans {
				if _, err := rebuild(p); err != nil {
					t.Fatalf("%s %s: %v", c.name, cfg.name, err)
				}
			}
		}
	}
	t.Logf("%d plans registered in %d configurations", len(corpus), len(configs))
}

// rebuild rebuilds n through the constructors, bottom-up, and compares each
// node's Schema with its rebuilt copy's.
func rebuild(n algebra.Node) (algebra.Node, error) {
	var kids []algebra.Node
	for _, c := range n.Children() {
		r, err := rebuild(c)
		if err != nil {
			return nil, err
		}
		kids = append(kids, r)
	}
	var r algebra.Node
	switch x := n.(type) {
	case *algebra.Project:
		r = algebra.NewProject(kids[0], x.Items)
	case *algebra.Join:
		r = algebra.NewJoin(kids[0], kids[1], x.Pred)
	case *algebra.UnionAll:
		r = algebra.NewUnionAll(x.BranchAttr, kids...)
	case *algebra.Select:
		r = algebra.NewSelect(kids[0], x.Pred)
	case *algebra.SemiJoin:
		s := algebra.NewSemiJoin(kids[0], kids[1], x.Pred)
		s.Anti = x.Anti
		r = s
	case *algebra.GroupBy:
		r = algebra.NewGroupBy(kids[0], x.Keys, x.Aggs)
	default:
		return n, nil // a leaf keeps the schema it was built with
	}
	got, want := n.Schema(), r.Schema()
	if !slices.Equal(got.Attrs, want.Attrs) || !slices.Equal(got.Key, want.Key) {
		return nil, fmt.Errorf("%s keeps schema %v key %v, rebuilt it derives %v key %v", n, got.Attrs, got.Key, want.Attrs, want.Key)
	}
	return r, nil
}
