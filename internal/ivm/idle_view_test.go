package ivm_test

import (
	"runtime"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// idleViewAllocs is what a view the round gives no diff adds to the
// allocations of a MaintainAll round besides one per stored table its
// script names (its counter-charging handle): its slots, report, cost record
// and step list, its executor and handle list, and up to two more for the
// round's epoch table lists growing past it. A compiled Δ-script resolved
// every name at registration, so none of this grows with the script's steps.
const idleViewAllocs = 8

// scriptTables counts the stored tables a script names: the view, its
// caches, every table its plans scan or read, every APPLY target.
func scriptTables(s *ivm.Script) int {
	seen := map[string]bool{s.View: true}
	for _, c := range s.Caches {
		seen[c.Name] = true
	}
	for _, st := range s.Steps {
		switch x := st.(type) {
		case *ivm.ComputeStep:
			algebra.Walk(x.Plan, func(n algebra.Node) {
				switch y := n.(type) {
				case *algebra.Scan:
					seen[y.Table] = true
				case *algebra.RelRef:
					if y.Stored {
						seen[y.Name] = true
					}
				}
			})
		case *ivm.ApplyStep:
			seen[x.Table] = true
		}
	}
	return len(seen)
}

// roundAllocs is the fewest heap objects one MaintainAll round allocated
// over a few rounds after two warm-up rounds, each after a one-row update
// to act.
func roundAllocs(t *testing.T, sys *ivm.System, ds *bsma.Dataset) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	for i := 0; i < 6; i++ {
		v := rel.Int(int64(i % 2))
		if _, err := ds.DB.Update("act", []rel.Value{rel.Int(1)}, []string{"v"}, []rel.Value{v}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sys.MaintainAll(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 2 { // the first rounds bring new tables into their epochs
			best = min(best, after.Mallocs-before.Mallocs)
		}
	}
	return best
}

// TestIdleViewCostsNoPerStepAllocations registers the BSMA views one by one
// beside one active view over a table of its own, which every round updates
// while the BSMA tables, logged, stay untouched: each BSMA view is idle. Every view
// may add at most one allocation per stored table its script names, plus
// idleViewAllocs, to the round — however many steps its script has.
func TestIdleViewCostsNoPerStepAllocations(t *testing.T) {
	p := bsma.Defaults(60)
	p.FriendsPerUser, p.TweetsPerUser = 3, 4
	ds := bsma.Build(p)
	// The BSMA tables are logged from the start, as registering the first
	// view over them would make them: that is a cost of the tables, once.
	for _, name := range ds.DB.TableNames() {
		ds.DB.EnableLogging(name)
	}
	act := ds.DB.MustCreateTable("act", rel.NewSchema([]string{"k", "v"}, []string{"k"}))
	act.MustInsert(rel.Int(1), rel.Int(0))
	sys := ivm.NewSystem(ds.DB)
	sys.Workers = 1
	scan := algebra.NewScan("act", "", act.Schema())
	active := algebra.NewProject(scan, []algebra.ProjItem{{E: expr.C("act.k"), As: "k"}, {E: expr.C("act.v"), As: "v"}})
	if _, err := sys.RegisterView("active", active, ivm.ModeID); err != nil {
		t.Fatal(err)
	}
	prev := roundAllocs(t, sys, ds)
	for _, name := range bsma.ViewNames() {
		v, err := sys.RegisterView(name, bsmaPlan(t, ds, name), ivm.ModeID)
		if err != nil {
			t.Fatal(err)
		}
		got := roundAllocs(t, sys, ds)
		tables := scriptTables(v.Script)
		if added := int64(got) - int64(prev); added > int64(tables+idleViewAllocs) {
			t.Errorf("idle view %s (%d steps, %d tables) adds %d allocations to a round, want at most %d",
				name, len(v.Script.Steps), tables, added, tables+idleViewAllocs)
		} else {
			t.Logf("idle view %s (%d steps, %d tables) adds %d allocations", name, len(v.Script.Steps), tables, added)
		}
		prev = got
	}
}
