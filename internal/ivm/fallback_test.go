package ivm_test

import (
	"testing"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// A selection above a MIN/MAX aggregate: the γ's recompute-path update
// diffs carry no pre-state, so the σ must take its Input-consulting
// fallback (the non-blue Table 6 variants) when the filtered attribute is
// updated.
func TestSelectionFallbackAboveMinMax(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			// cheapest(did) = min part price; view keeps devices whose
			// cheapest part costs more than 12.
			agg := algebra.NewGroupBy(spjPlan(t, d), []string{"devices_parts.did"},
				[]algebra.Agg{{Fn: algebra.AggMin, Arg: expr.C("price"), As: "cheapest"}})
			plan := algebra.NewSelect(agg, expr.Gt(expr.C("cheapest"), expr.IntLit(12)))

			s := ivm.NewSystem(d)
			s.SelfCheck = true
			register(t, s, "premium", plan, mode)
			vt, _ := d.Table("premium")
			if vt.Len() != 0 { // D1 min 10, D2 min 10
				t.Fatalf("initial = %d, want 0", vt.Len())
			}

			// Raise P1: D1 min becomes 20 (enters), D2 min 50 (enters).
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(50)})
			maintainAndCheck(t, s)
			if vt.Len() != 2 {
				t.Fatalf("after raise = %d, want 2", vt.Len())
			}

			// Drop P2: D1 min becomes 5 (leaves), D2 unaffected.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P2")}, []string{"price"}, []rel.Value{rel.Int(5)})
			maintainAndCheck(t, s)
			if vt.Len() != 1 {
				t.Fatalf("after drop = %d, want 1", vt.Len())
			}
			if _, ok := vt.Get(rel.StatePost, []rel.Value{rel.String("D2")}); !ok {
				t.Fatal("D2 should remain premium")
			}
		})
	}
}

// Exercise the remaining PhaseCosts/System accessors.
func TestReportAccessors(t *testing.T) {
	d := fig2DB(t)
	s := ivm.NewSystem(d)
	v := register(t, s, "V", spjPlan(t, d), ivm.ModeID)
	if got, ok := s.View("V"); !ok || got != v {
		t.Fatal("View accessor")
	}
	if _, ok := s.View("ghost"); ok {
		t.Fatal("ghost view found")
	}
	mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)})
	reports := maintainAndCheck(t, s)
	if reports[0].Phases.TotalTime() < 0 {
		t.Fatal("negative total time")
	}
	if reports[0].Phases.TotalTime() > time.Minute {
		t.Fatal("implausible total time")
	}
	if _, err := s.Recompute("ghost"); err == nil {
		t.Fatal("recompute of ghost view must fail")
	}
	if err := s.CheckConsistent("ghost"); err == nil {
		t.Fatal("consistency of ghost view must fail")
	}
	if _, err := s.RegisterView("V", spjPlan(t, d), ivm.ModeID); err == nil {
		t.Fatal("duplicate registration must fail")
	}
}
