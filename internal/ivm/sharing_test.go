package ivm_test

import (
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/expr"
	"idivm/internal/harness"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// Every script the repository's workloads generate passes the verifier's
// duplicate-subplan check in both modes: the eight BSMA views, the three
// city views of harness.CityViews (the histogram as a cascade over the
// rollup) and the Figure 7 view. RegisterView already runs Verify; it is
// called again here so a failure names the check. The random-plan
// generator's scripts go through the same check in
// TestRandomPlanScriptsVerify.
func TestSharingCheckOnRepositoryScripts(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		ds := bsma.Build(bsma.Defaults(40))
		sys := ivm.NewSystem(ds.DB)
		for _, name := range append(bsma.QueryNames(), harness.CityViews...) {
			v := register(t, sys, name, bsmaOrCityPlan(t, ds, name), mode)
			if err := ivm.Verify(v.Script); err != nil {
				t.Errorf("%s %s: %v", mode, name, err)
			}
		}
		d := fig2DB(t)
		v := register(t, ivm.NewSystem(d), "Vagg", aggPlan(t, d), mode)
		if err := ivm.Verify(v.Script); err != nil {
			t.Errorf("%s Vagg: %v", mode, err)
		}
	}
}

// The dispatch table on groupRules, read off generated scripts: ΔK marks
// Table 7, ΔG the incremental path, both together the per-diff dispatch.
// Every view below has a diff schema that updates a grouping attribute.
func TestGroupRuleDispatch(t *testing.T) {
	ds := bsma.Build(bsma.Defaults(40))
	sys := ivm.NewSystem(ds.DB)
	qs3, err := ds.Plan("Q*3")
	if err != nil {
		t.Fatal(err)
	}
	avg := algebra.NewGroupBy(qs3.(*algebra.GroupBy).Child, []string{"microblog.topic"},
		[]algebra.Agg{{Fn: algebra.AggAvg, Arg: expr.C("user.tweetsnum"), As: "avg_tweets"}})
	for _, tc := range []struct {
		name          string
		plan          algebra.Node
		mode          ivm.Mode
		opts          ivm.GenOptions
		table7, incr  bool
		multisetCache bool
	}{
		{"sum over a cache, id mode: per-diff", qs3, ivm.ModeID, ivm.GenOptions{}, true, true, false},
		{"sum over a cache, tuple mode: all Table 7", qs3, ivm.ModeTuple, ivm.GenOptions{}, true, false, false},
		{"sum, caches off: all Table 7", qs3, ivm.ModeID, ivm.GenOptions{NoCache: true}, true, false, false},
		// AVG is rewritten to π over γ[SUM, COUNT] and dispatches like them.
		{"avg over a cache, id mode: per-diff", avg, ivm.ModeID, ivm.GenOptions{}, true, true, false},
		{"avg over a cache, tuple mode: all Table 7", avg, ivm.ModeTuple, ivm.GenOptions{}, true, false, false},
		{"sum over a base scan: all Table 7", bsmaOrCityPlan(t, ds, "city_rollup"), ivm.ModeID, ivm.GenOptions{}, true, false, false},
		// MIN/MAX is rewritten to read a γ-COUNT(*) per (city, tweetsnum);
		// user.tweetsnum is a key of that γ, whose input is a base scan, so
		// it stays on Table 7 as well. Without caches there is no rewrite.
		{"min/max over a base scan", bsmaOrCityPlan(t, ds, "city_minmax"), ivm.ModeID, ivm.GenOptions{}, true, false, true},
		{"min/max, caches off", bsmaOrCityPlan(t, ds, "city_minmax"), ivm.ModeID, ivm.GenOptions{NoCache: true}, true, false, false},
		{"min/max, tuple mode", bsmaOrCityPlan(t, ds, "city_minmax"), ivm.ModeTuple, ivm.GenOptions{}, true, false, false},
	} {
		v, err := sys.RegisterView(tc.name, tc.plan, tc.mode, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		script := v.Script.String()
		if got := strings.Contains(script, "ΔK"); got != tc.table7 {
			t.Errorf("%s: Table 7 in play = %v, want %v", tc.name, got, tc.table7)
		}
		if got := strings.Contains(script, "ΔG"); got != tc.incr {
			t.Errorf("%s: incremental path in play = %v, want %v", tc.name, got, tc.incr)
		}
		if got := strings.Contains(script, "#mult"); got != tc.multisetCache {
			t.Errorf("%s: multiset cache = %v, want %v", tc.name, got, tc.multisetCache)
		}
	}
}

// A user plan may contain the same sub-expression under two operators:
// here both union branches select from parts ⋈ devices_parts (same
// aliases), so the rules compose the same diff-driven join into both
// branches' diffs. Registration hoists it into one transient step — a
// repeat is a cost, never a reason to refuse a view — and the view is
// maintained correctly.
func TestRepeatedUserSubexpressionRegisters(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			parts, _ := d.Table("parts")
			dp, _ := d.Table("devices_parts")
			branch := func(pred expr.Expr) algebra.Node {
				return algebra.NewSelect(algebra.NewJoin(
					algebra.NewScan("parts", "", parts.Schema()),
					algebra.NewScan("devices_parts", "", dp.Schema()),
					expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid"))), pred)
			}
			plan := algebra.NewUnionAll(
				branch(expr.Gt(expr.C("parts.price"), expr.IntLit(10))),
				branch(expr.Lt(expr.C("parts.price"), expr.IntLit(11))), "b")
			s := ivm.NewSystem(d)
			v := register(t, s, "u", plan, mode)
			if !strings.Contains(v.Script.String(), "ΔS") {
				t.Errorf("the repeated join should be one shared step:\n%s", v.Script)
			}
			if err := d.Insert("parts", rel.Tuple{rel.String("P9"), rel.Int(5)}); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert("devices_parts", rel.Tuple{rel.String("D1"), rel.String("P9")}); err != nil {
				t.Fatal(err)
			}
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)})
			maintainAndCheck(t, s)
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P2")}, []string{"price"}, []rel.Value{rel.Int(3)})
			if _, err := d.Delete("devices_parts", []rel.Value{rel.String("D1"), rel.String("P9")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
		})
	}
}
