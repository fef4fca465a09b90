package ivm

import (
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
)

func TestRunScriptMissingTargets(t *testing.T) {
	d := db.New()
	s := &Script{
		View: "ghost",
		Steps: []Step{
			&ApplyStep{Table: "ghost", DiffName: "d", Ph: PhaseViewUpdate},
		},
	}
	if err := CompileScript(s); err != nil {
		t.Fatal(err)
	}
	in := map[string]*rel.Relation{"d": rel.NewRelation(DiffSchema{}.RelSchema())}
	if _, err := RunScriptOpts(d, s, in, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "not materialized") {
		t.Fatalf("expected materialization error, got %v", err)
	}
}

func TestRunScriptUnboundDiff(t *testing.T) {
	d := db.New()
	d.MustCreateTable("v", rel.NewSchema([]string{"k"}, []string{"k"}))
	s := &Script{
		View: "v",
		Steps: []Step{
			&ApplyStep{Table: "v", DiffName: "nope",
				Diff: DiffSchema{Type: DiffDelete, Rel: "v", IDs: []string{"k"}}, Ph: PhaseViewUpdate},
		},
	}
	if err := CompileScript(s); err != nil {
		t.Fatal(err)
	}
	if _, err := RunScriptOpts(d, s, nil, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "unbound diff") {
		t.Fatalf("expected unbound-diff error, got %v", err)
	}
}

func TestRunScriptComputeErrorPropagates(t *testing.T) {
	d := db.New()
	d.MustCreateTable("v", rel.NewSchema([]string{"k"}, []string{"k"}))
	s := &Script{
		View: "v",
		Steps: []Step{
			&ComputeStep{Name: "x",
				Plan: algebra.NewRelRef("missing", rel.NewSchema([]string{"k"}, []string{"k"})),
				Ph:   PhaseViewCompute},
		},
	}
	if err := CompileScript(s); err != nil {
		t.Fatal(err)
	}
	// A run opens and closes no epoch, on failure as on success: a table
	// outside its epoch stays outside, one inside stays inside.
	vt, _ := d.Table("v")
	for _, inEpoch := range []bool{false, true} {
		if inEpoch {
			vt.BeginEpoch()
		}
		if _, err := RunScriptOpts(d, s, nil, ExecOptions{}); err == nil {
			t.Fatal("expected compute error")
		}
		if vt.InEpoch() != inEpoch {
			t.Fatalf("a failed run moved the epoch: InEpoch %v, was %v", vt.InEpoch(), inEpoch)
		}
	}
}

// TestComputeStepNeedsCompiledPlan: a run executes what CompileScript
// resolved, so a script it never saw fails to run — compiled or under the
// Interpret oracle — with one error naming the script's view, and runs
// once compiled.
func TestComputeStepNeedsCompiledPlan(t *testing.T) {
	d := db.New()
	d.MustCreateTable("v", rel.NewSchema([]string{"k"}, []string{"k"}))
	ins := DiffSchema{Type: DiffInsert, Rel: "v", IDs: []string{"k"}}
	s := &Script{
		View: "v",
		Steps: []Step{
			&ComputeStep{Name: "Δraw", Diff: &ins, Plan: algebra.NewRelRef("in", ins.RelSchema()), Ph: PhaseViewCompute},
			&ApplyStep{Table: "v", DiffName: "Δraw", Diff: ins, Ph: PhaseViewUpdate},
		},
	}
	rows := rel.NewRelation(ins.RelSchema())
	rows.Add(rel.Tuple{rel.Int(7)})
	in := map[string]*rel.Relation{"in": rows}
	for _, interpret := range []bool{false, true} {
		if _, err := RunScriptOpts(d, s, in, ExecOptions{Interpret: interpret}); err == nil ||
			!strings.Contains(err.Error(), "for v was never compiled") {
			t.Fatalf("uncompiled script, interpret=%v: err = %v, want a never-compiled error naming v", interpret, err)
		}
	}
	if err := CompileScript(s); err != nil {
		t.Fatal(err)
	}
	if _, err := RunScriptOpts(d, s, in, ExecOptions{}); err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	if vt, _ := d.Table("v"); len(vt.Scan(rel.StatePost)) != 1 {
		t.Fatal("the compiled run did not apply its diff")
	}
}

func TestRunScriptVerifiedCatchesNonEffectiveDiff(t *testing.T) {
	d := db.New()
	vt := d.MustCreateTable("v", rel.NewSchema([]string{"k", "x"}, []string{"k"}))
	vt.MustInsert(rel.Int(1), rel.Int(10))
	vt.MustInsert(rel.Int(2), rel.Int(20))

	// A hand-built script whose delete diff names a key that remains in
	// the post state (a second diff re-inserts it): non-effective.
	del := DiffSchema{Type: DiffDelete, Rel: "v", IDs: []string{"k"}}
	ins := DiffSchema{Type: DiffInsert, Rel: "v", IDs: []string{"k"}, Post: []string{"x"}}
	delRows := rel.NewRelation(del.RelSchema())
	delRows.Add(rel.Tuple{rel.Int(1)})
	insRows := rel.NewRelation(ins.RelSchema())
	insRows.Add(rel.Tuple{rel.Int(1), rel.Int(99)})
	s := &Script{
		View: "v",
		Steps: []Step{
			&ApplyStep{Table: "v", DiffName: "del", Diff: del, Ph: PhaseViewUpdate},
			&ApplyStep{Table: "v", DiffName: "ins", Diff: ins, Ph: PhaseViewUpdate},
		},
	}
	if err := CompileScript(s); err != nil {
		t.Fatal(err)
	}
	slots, err := inputSlots(s, map[string]*rel.Relation{"del": delRows, "ins": insRows})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScript(d, s, slots, true, ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "non-effective") {
		t.Fatalf("expected non-effective error, got %v", err)
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseCacheCompute: "cache-diff-computation",
		PhaseCacheUpdate:  "cache-update",
		PhaseViewCompute:  "view-diff-computation",
		PhaseViewUpdate:   "view-update",
	}
	for ph, s := range want {
		if ph.String() != s {
			t.Errorf("phase %d = %q", ph, ph.String())
		}
	}
}

func TestScriptStringAndStepStrings(t *testing.T) {
	ds := DiffSchema{Type: DiffUpdate, Rel: "v", IDs: []string{"k"}, Post: []string{"x"}}
	cs := &ComputeStep{Name: "Δ1", Diff: &ds,
		Plan: algebra.NewRelRef("b", ds.RelSchema()), Ph: PhaseViewCompute}
	as := &ApplyStep{Table: "v", DiffName: "Δ1", Diff: ds, Ph: PhaseViewUpdate}
	aux := &ComputeStep{Name: "aux", Plan: algebra.NewRelRef("b", ds.RelSchema()), Ph: PhaseViewCompute}
	s := &Script{View: "v", Steps: []Step{cs, as, aux},
		Caches: []CacheDef{{Name: "c", Plan: algebra.NewRelRef("b", ds.RelSchema())}}}
	out := s.String()
	for _, frag := range []string{"Δ1", "APPLY Δ1 TO v", "CACHE c", "∆u_v"} {
		if !strings.Contains(out, frag) {
			t.Errorf("script rendering missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(aux.String(), "aux :=") {
		t.Error("aux step rendering")
	}
}
