package ivm_test

import (
	"fmt"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/workload"
)

// TestMaterializedPlansMatchEval pins the parity registration rests on:
// System.materialize runs a plan's compiled form, so every plan registration
// materializes — each view and each cache of the BSMA set (the bsma_views
// system, cascade included, plus the query views in tuple mode) and of the
// running example in both modes — must give the rows, in the same order,
// and the access counters that the algebra.Eval oracle gives on the same
// database state.
func TestMaterializedPlansMatchEval(t *testing.T) {
	ds := bsma.Build(bsma.Defaults(60))
	sys := ivm.NewSystem(ds.DB)
	registerBSMAViews(t, sys, ds)
	checkMaterialized(t, sys)

	tuple := bsma.Build(bsma.Defaults(60))
	sys = ivm.NewSystem(tuple.DB)
	for _, q := range bsma.QueryNames() {
		plan, err := tuple.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RegisterView(q, plan, ivm.ModeTuple); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	checkMaterialized(t, sys)

	ex := workload.Build(workload.Params{Parts: 300, Devices: 300, Selectivity: 20, Fanout: 3, Joins: 2, Seed: 5})
	sys = ivm.NewSystem(ex.DB)
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		for i, plan := range []algebra.Node{ex.SPJPlan(), ex.AggPlan()} {
			if _, err := sys.RegisterView(fmt.Sprintf("v%d_%v", i, mode), plan, mode); err != nil {
				t.Fatalf("view %d in %v: %v", i, mode, err)
			}
		}
	}
	checkMaterialized(t, sys)
}

// checkMaterialized compares, for every view of sys and every cache of its
// script, the compiled run of the plan with Eval's.
func checkMaterialized(t *testing.T, sys *ivm.System) {
	t.Helper()
	for _, name := range sys.ViewNames() {
		v, _ := sys.View(name)
		compiledMatchesEval(t, sys.DB, name, v.Plan)
		for _, c := range v.Script.Caches {
			compiledMatchesEval(t, sys.DB, name+"/"+c.Name, c.Plan)
		}
	}
}

func compiledMatchesEval(t *testing.T, d *db.Database, name string, plan algebra.Node) {
	t.Helper()
	p, err := algebra.Compile(plan)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	d.Counter().Reset()
	got, err := p.Run(d)
	if err != nil {
		t.Fatalf("%s: compiled: %v", name, err)
	}
	gotCost := *d.Counter()
	d.Counter().Reset()
	want, err := algebra.Eval(plan, d)
	if err != nil {
		t.Fatalf("%s: Eval: %v", name, err)
	}
	if cost := *d.Counter(); cost != gotCost {
		t.Errorf("%s: counters differ: Eval %+v, compiled %+v", name, cost, gotCost)
	}
	if len(got.Tuples) == 0 {
		t.Errorf("%s: materializes no rows; the parity check is vacuous", name)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: compiled %d rows, Eval %d", name, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) {
			t.Fatalf("%s: row %d: compiled %v, Eval %v", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}
