package ivm_test

import (
	"testing"

	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// Instance generation binds EVERY registered base diff schema (empty
// relations included) so scripts always resolve their references, and
// compaction does not consume the log. The round's feed binds the same one
// diff tuple.
func TestGenerateInstancesBindsEverything(t *testing.T) {
	d := fig2DB(t)
	s := ivm.NewSystem(d)
	v := register(t, s, "V", spjPlan(t, d), ivm.ModeID)

	mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)})

	bindings, n, err := viewInstances(d, v)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("diff tuples = %d", n)
	}
	total := 0
	for table, schemas := range v.Script.Base {
		for i := range schemas {
			name := ivm.BaseBindName(table, i)
			r, ok := bindings[name]
			if !ok || r == nil {
				t.Fatalf("missing binding %s", name)
			}
			total += r.Len()
		}
	}
	if total != 1 {
		t.Fatalf("bound diff tuples = %d, want 1", total)
	}
	// The log is intact: a second call yields the same instances.
	b2, n2, err := viewInstances(d, v)
	if err != nil || n2 != 1 {
		t.Fatalf("second call: n=%d err=%v", n2, err)
	}
	for name, r := range bindings {
		if b2[name].Len() != r.Len() {
			t.Fatalf("binding %s changed between calls", name)
		}
	}
	reports, err := s.MaintainAll()
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].DiffTuples != 1 {
		t.Fatalf("the round's feed bound %d diff tuples, want 1", reports[0].DiffTuples)
	}
}

// An update routed into two schemas (conditional + NC) appears in both
// instances when it touches attributes of both sets.
func TestInstancesRoutingAcrossSchemas(t *testing.T) {
	d := fig2DB(t)
	// Widen devices with a non-conditional attribute.
	d.DropTable("devices")
	devices := d.MustCreateTable("devices", rel.NewSchema(
		[]string{"did", "category", "weight"}, []string{"did"}))
	devices.MustInsert(rel.String("D1"), rel.String("phone"), rel.Int(100))
	devices.MustInsert(rel.String("D2"), rel.String("phone"), rel.Int(120))
	devices.MustInsert(rel.String("D3"), rel.String("tablet"), rel.Int(300))

	s := ivm.NewSystem(d)
	v := register(t, s, "V", spjPlan(t, d), ivm.ModeID)

	// One update touching both the conditional (category) and the NC
	// (weight) attribute.
	mustUpdate(t, d, "devices", []rel.Value{rel.String("D3")},
		[]string{"category", "weight"},
		[]rel.Value{rel.String("phone"), rel.Int(280)})

	bindings, _, err := viewInstances(d, v)
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	for i, ds := range v.Script.Base["devices"] {
		if ds.Type != ivm.DiffUpdate {
			continue
		}
		if bindings[ivm.BaseBindName("devices", i)].Len() == 1 {
			populated++
		}
	}
	if populated != 2 {
		t.Fatalf("update should populate both update schemas, got %d", populated)
	}
	if _, err := s.MaintainAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent("V"); err != nil {
		t.Fatal(err)
	}
}
