package workload

import (
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/rel"
)

func TestBuildCardinalitiesAndSelectivity(t *testing.T) {
	p := Defaults(500)
	p.Devices = 400
	p.Fanout = 6
	p.Selectivity = 25
	ds := Build(p)

	parts, _ := ds.DB.Table("parts")
	devices, _ := ds.DB.Table("devices")
	dp, _ := ds.DB.Table("devices_parts")
	if parts.Len() != 500 || devices.Len() != 400 {
		t.Fatalf("sizes: parts=%d devices=%d", parts.Len(), devices.Len())
	}
	// Fanout may lose a few rows to duplicate retries but stays close.
	if dp.Len() < 400*6*95/100 {
		t.Fatalf("devices_parts = %d, want ≈ %d", dp.Len(), 400*6)
	}
	phones := 0
	for _, row := range devices.Rows(rel.StatePost) {
		if row[1].Text() == "phone" {
			phones++
		}
	}
	if phones != 100 { // deterministic striping: exactly 25%
		t.Fatalf("phones = %d, want 100", phones)
	}
}

func TestBuildDeterminism(t *testing.T) {
	p := Defaults(200)
	a, b := Build(p), Build(p)
	pa, _ := a.DB.Table("parts")
	pb, _ := b.DB.Table("parts")
	ra := pa.Relation(rel.StatePost)
	rb := pb.Relation(rel.StatePost)
	if !ra.EqualSet(rb) {
		t.Fatal("same seed must generate identical data")
	}
}

func TestSideTablesForJoins(t *testing.T) {
	p := Defaults(100)
	p.Devices, p.Fanout, p.Joins = 100, 3, 4
	ds := Build(p)
	for _, name := range []string{"r1", "r2"} {
		side, err := ds.DB.Table(name)
		if err != nil {
			t.Fatalf("side table %s missing: %v", name, err)
		}
		dp, _ := ds.DB.Table("devices_parts")
		if side.Len() != dp.Len() {
			t.Fatalf("%s len = %d, want %d (1-to-1)", name, side.Len(), dp.Len())
		}
	}
	plan := ds.SPJPlan()
	if len(algebra.BaseTables(plan)) != 5 {
		t.Fatalf("base tables = %v", algebra.BaseTables(plan))
	}
	// The joins sweep disables the selection only when asked.
	hasSelect := false
	algebra.Walk(plan, func(n algebra.Node) {
		if _, ok := n.(*algebra.Select); ok {
			hasSelect = true
		}
	})
	if !hasSelect {
		t.Fatal("selection should be present unless NoSelection is set")
	}
	p.NoSelection = true
	ds2 := Build(p)
	hasSelect = false
	algebra.Walk(ds2.SPJPlan(), func(n algebra.Node) {
		if _, ok := n.(*algebra.Select); ok {
			hasSelect = true
		}
	})
	if hasSelect {
		t.Fatal("NoSelection must drop the selection")
	}
}

func TestApplyPriceUpdatesDistinctAndLogged(t *testing.T) {
	p := Defaults(100)
	p.DiffSize = 30
	ds := Build(p)
	ds.DB.EnableLogging("parts")
	if err := ds.ApplyPriceUpdates(); err != nil {
		t.Fatal(err)
	}
	log := ds.DB.Log()
	if len(log) != 30 {
		t.Fatalf("logged updates = %d, want 30", len(log))
	}
	seen := map[string]bool{}
	for _, m := range log {
		k := m.Pre[0].String()
		if seen[k] {
			t.Fatalf("duplicate part updated: %s", k)
		}
		seen[k] = true
	}
}

func TestApplyPartChurnKeepsReferentialSanity(t *testing.T) {
	p := Defaults(120)
	p.Devices, p.Fanout = 120, 4
	ds := Build(p)
	ds.DB.EnableLogging("parts")
	ds.DB.EnableLogging("devices_parts")
	for round := 0; round < 3; round++ {
		if err := ds.ApplyPartChurn(5, 5); err != nil {
			t.Fatal(err)
		}
		ds.DB.ResetLog()
	}
	// No dangling containments.
	parts, _ := ds.DB.Table("parts")
	dp, _ := ds.DB.Table("devices_parts")
	for _, row := range dp.Rows(rel.StatePost) {
		if _, ok := parts.Get(rel.StatePost, []rel.Value{row[1]}); !ok {
			t.Fatalf("dangling containment %v", row)
		}
	}
}

func TestCategoryFlips(t *testing.T) {
	p := Defaults(50)
	p.Devices = 50
	ds := Build(p)
	ds.DB.EnableLogging("devices")
	if err := ds.ApplyCategoryFlips(10); err != nil {
		t.Fatal(err)
	}
	if len(ds.DB.Log()) != 10 {
		t.Fatalf("flips logged = %d", len(ds.DB.Log()))
	}
	for _, m := range ds.DB.Log() {
		if m.Pre[1].Text() == m.Post[1].Text() {
			t.Fatal("flip must change the category")
		}
	}
}

func TestAggPlanShape(t *testing.T) {
	ds := Build(Defaults(50))
	agg := ds.AggPlan()
	g, ok := agg.(*algebra.GroupBy)
	if !ok {
		t.Fatalf("agg plan root = %T", agg)
	}
	if len(g.Keys) != 1 || g.Keys[0] != "devices_parts.did" {
		t.Fatalf("group keys = %v", g.Keys)
	}
}

func TestPaperValues(t *testing.T) {
	if got := PaperValues(VaryDiffSize); len(got) != 5 || got[0] != 100 {
		t.Errorf("d values = %v", got)
	}
	if got := PaperValues(VaryJoins); got[len(got)-1] != 6 {
		t.Errorf("j values = %v", got)
	}
	if got := PaperValues(VarySelectivity); got[0] != 6 {
		t.Errorf("s values = %v", got)
	}
	if got := PaperValues(VaryFanout); got[0] != 5 {
		t.Errorf("f values = %v", got)
	}
}
