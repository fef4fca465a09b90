package ivm

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// bindingScript is a hand-built Δ-script with every way a binding is read:
//
//	T   := σ[x#post > 0](∆ins)                 transient: computes read it, no APPLY does
//	Δ1  := π[k, x#post](T)                     read by two APPLYs and by two computes
//	APPLY Δ1 TO c1;  APPLY Δ1 TO c2
//	Δ2  := π[k, (x#post + w)→x#post](Δ1 ⋈ src) a charged probe per Δ1 row
//	Δ3  := Δ1 ⋉ T                              hash semijoin of two bindings
//	APPLY Δ2 TO v;  APPLY Δ3 TO c3
func bindingScript(t *testing.T) (*Script, DiffSchema) {
	t.Helper()
	ins := func(target string) DiffSchema {
		return DiffSchema{Type: DiffInsert, Rel: target, IDs: []string{"k"}, Post: []string{"x"}}
	}
	diffSch := ins("v").RelSchema()
	srcSch := rel.NewSchema([]string{"k", "w"}, []string{"k"})
	base := algebra.NewRelRef("ins", diffSch)
	tRef := algebra.NewRelRef("T", diffSch)
	d1 := algebra.NewRelRef("Δ1", diffSch)
	keep := []algebra.ProjItem{{E: expr.C("k"), As: "k"}, {E: expr.C("x#post"), As: "x#post"}}
	s := &Script{
		View:   "v",
		Caches: []CacheDef{{Name: "c1"}, {Name: "c2"}, {Name: "c3"}},
		Steps: []Step{
			&ComputeStep{Name: "T", Plan: algebra.NewSelect(base, expr.Gt(expr.C("x#post"), expr.IntLit(0))), Ph: PhaseCacheCompute},
			&ComputeStep{Name: "Δ1", Plan: algebra.NewProject(tRef, keep), Ph: PhaseCacheCompute},
			&ApplyStep{Table: "c1", DiffName: "Δ1", Diff: ins("c1"), Ph: PhaseCacheUpdate},
			&ApplyStep{Table: "c2", DiffName: "Δ1", Diff: ins("c2"), Ph: PhaseCacheUpdate},
			&ComputeStep{Name: "Δ2", Ph: PhaseViewCompute, Plan: algebra.NewProject(
				algebra.NewJoin(d1, algebra.NewScan("src", "", srcSch), expr.Eq(expr.C("k"), expr.C("src.k"))),
				[]algebra.ProjItem{{E: expr.C("k"), As: "k"}, {E: expr.AddE(expr.C("x#post"), expr.C("src.w")), As: "x#post"}})},
			&ComputeStep{Name: "Δ3", Ph: PhaseViewCompute, Plan: algebra.NewSemiJoin(d1,
				algebra.NewProject(tRef, []algebra.ProjItem{{E: expr.C("k"), As: "tk"}}), expr.Eq(expr.C("k"), expr.C("tk")))},
			&ApplyStep{Table: "v", DiffName: "Δ2", Diff: ins("v"), Ph: PhaseViewUpdate},
			&ApplyStep{Table: "c3", DiffName: "Δ3", Diff: ins("c3"), Ph: PhaseCacheUpdate},
		},
	}
	if err := CompileScript(s); err != nil {
		t.Fatal(err)
	}
	return s, ins("v")
}

// TestBindingsReadAsColumnsAndAsTuples runs bindingScript compiled and
// interpreted and requires one outcome: the same rows in every target, the
// same per-step access counts and row counts, the same Applied instances.
// (Concurrent reads of one binding's lazy conversions happen across views,
// which share the round's base instances: TestMaintainAllParallelStress.)
func TestBindingsReadAsColumnsAndAsTuples(t *testing.T) {
	type outcome struct {
		tables  map[string][]string
		steps   []StepCost
		total   rel.CostCounter
		applied []string
	}
	run := func(interpret bool, round int) outcome {
		d := db.New()
		target := rel.NewSchema([]string{"k", "x"}, []string{"k"})
		for _, name := range []string{"v", "c1", "c2", "c3"} {
			d.MustCreateTable(name, target)
		}
		src := d.MustCreateTable("src", rel.NewSchema([]string{"k", "w"}, []string{"k"}))
		s, ins := bindingScript(t)
		rows := rel.NewRelation(ins.RelSchema())
		for k := 0; k < 40+round; k++ {
			src.MustInsert(rel.Int(int64(k)), rel.Int(int64(100*k)))
			rows.Add(rel.Tuple{rel.Int(int64(k)), rel.Int(int64(k%5 - 1))}) // some fail σ
		}
		d.Counter().Reset()
		pc, err := RunScriptOpts(d, s, map[string]*rel.Relation{"ins": rows}, ExecOptions{Interpret: interpret})
		if err != nil {
			t.Fatalf("interpret=%v: %v", interpret, err)
		}
		o := outcome{tables: map[string][]string{}, total: *d.Counter()}
		for _, st := range pc.Steps {
			st.Time = 0
			o.steps = append(o.steps, st)
		}
		for _, inst := range pc.Applied {
			for _, row := range inst.Tuples() {
				o.applied = append(o.applied, inst.Schema.String()+rel.TupleKey(row))
			}
		}
		for _, name := range []string{"v", "c1", "c2", "c3"} {
			tab, _ := d.Table(name)
			for _, row := range tab.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost).Sorted().Tuples {
				o.tables[name] = append(o.tables[name], rel.TupleKey(row))
			}
		}
		return o
	}
	for round := 0; round < 10; round++ {
		ref := run(false, round)
		if n := len(ref.tables["v"]); n == 0 || n == 40+round || len(ref.tables["c1"]) != n || len(ref.tables["c3"]) != n {
			t.Fatalf("round %d: the script is not doing its job: %d of %d rows reached v, c1 has %d, c3 %d",
				round, n, 40+round, len(ref.tables["c1"]), len(ref.tables["c3"]))
		}
		got := run(true, round)
		if fmt.Sprint(got.tables) != fmt.Sprint(ref.tables) {
			t.Fatalf("round %d: interpreted target states differ:\n%v\n%v", round, got.tables, ref.tables)
		}
		if fmt.Sprint(got.steps) != fmt.Sprint(ref.steps) || got.total != ref.total {
			t.Fatalf("round %d: interpreted step costs differ:\n%v\n%v", round, got.steps, ref.steps)
		}
		if fmt.Sprint(got.applied) != fmt.Sprint(ref.applied) {
			t.Fatalf("round %d: interpreted applied instances differ:\n%v\n%v", round, got.applied, ref.applied)
		}
	}
}

// mallocs counts the heap objects f allocates, the way testing.AllocsPerRun
// does but for a single call: the first call is the one under test here.
// Mallocs counts the runtime's own objects too, and a collection that starts
// inside f allocates some (the process's first one starts its mark-worker
// goroutines), so a collection runs first: it completes, and with the heap
// goal reset no new one starts while f allocates its few kilobytes.
func mallocs(f func()) uint64 {
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTransientStepNeverBecomesTuples pins the point of binding batches and of
// APPLY over columns: after a compiled run no step result has tuples — not the
// transient T, which only computes read, and not Δ1, Δ2 or Δ3, which APPLYs
// read too — so asking for any of them is a first build, and allocates. The
// view's applied instance builds its tuples on the first Tuples call, from the
// binding Δ2's APPLY read, and a second call allocates nothing.
func TestTransientStepNeverBecomesTuples(t *testing.T) {
	d := db.New()
	target := rel.NewSchema([]string{"k", "x"}, []string{"k"})
	for _, name := range []string{"v", "c1", "c2", "c3"} {
		d.MustCreateTable(name, target)
	}
	d.MustCreateTable("src", rel.NewSchema([]string{"k", "w"}, []string{"k"})).MustInsert(rel.Int(1), rel.Int(5))
	s, ins := bindingScript(t)
	rows := rel.NewRelation(ins.RelSchema())
	rows.Add(rel.Tuple{rel.Int(1), rel.Int(3)})
	slots, err := inputSlots(s, map[string]*rel.Relation{"ins": rows})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := runScript(d, s, slots, false, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bind := func(name string) *rel.Binding { return slots[s.slotOf[name]] }
	for _, name := range []string{"T", "Δ1", "Δ2", "Δ3"} {
		if bind(name).Len() != 1 {
			t.Fatalf("binding %s has %d rows, want 1", name, bind(name).Len())
		}
	}
	if len(pc.Applied) != 1 || pc.Applied[0].Len() != 1 {
		t.Fatalf("applied %d instances, want one of one row", len(pc.Applied))
	}
	inst := pc.Applied[0]
	var got []rel.Tuple
	if n := mallocs(func() { got = inst.Tuples() }); n == 0 {
		t.Fatal("the applied instance already had tuples: its APPLY, or the run, built them")
	}
	if want := (rel.Tuple{rel.Int(1), rel.Int(8)}); len(got) != 1 || !got[0].KeyEqual(want) {
		t.Fatalf("applied instance rows %v, want [%v]", got, want)
	}
	if n := mallocs(func() { inst.Tuples() }); n != 0 {
		t.Fatalf("asking the applied instance for its tuples again allocated %d objects", n)
	}
	if n := mallocs(func() { bind("Δ2").Relation() }); n != 0 {
		t.Fatalf("the applied instance does not hold Δ2's binding: its tuples cost %d more objects", n)
	}
	for _, name := range []string{"T", "Δ1", "Δ3"} {
		if n := mallocs(func() { bind(name).Relation() }); n == 0 {
			t.Fatalf("step %s already had tuples: some step materialised its result", name)
		}
	}
	if n := mallocs(func() { bind("ins").Batch() }); n != 0 {
		t.Fatalf("the base instance was read by a compiled step, yet asking for its columns again allocated %d objects", n)
	}
}

// TestApplyAllocatesNoPerRowObjects bounds what a delete or update APPLY
// allocates: it reads the diff's columns, so an instance of 1 024 rows
// allocates as many objects as one of 16 — an update apart from the row
// images it stores, one per row.
func TestApplyAllocatesNoPerRowObjects(t *testing.T) {
	const most = 1024
	d := db.New()
	v := d.MustCreateTable("v", rel.NewSchema([]string{"k", "x"}, []string{"k"}))
	v.SetCounter(new(rel.CostCounter))
	del := DiffSchema{Type: DiffDelete, Rel: "v", IDs: []string{"k"}}
	upd := DiffSchema{Type: DiffUpdate, Rel: "v", IDs: []string{"k"}, Post: []string{"x"}}
	instance := func(ds DiffSchema, n int) (*rel.Batch, applyCols) {
		r := rel.NewRelation(ds.RelSchema())
		for k := 0; k < n; k++ {
			row := rel.Tuple{rel.Int(int64(k))}
			if ds.Type == DiffUpdate {
				row = append(row, rel.Int(int64(k+1)))
			}
			r.Add(row)
		}
		c, err := resolveApply(ds, r.Schema, v.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return rel.BindRelation(r).Batch(), c
	}
	fill := func() {
		for k := 0; k < most; k++ {
			if v.Len() < most {
				v.MustInsert(rel.Int(int64(k)), rel.Int(0))
			}
		}
	}
	apply := func(ds DiffSchema, n int) uint64 {
		b, c := instance(ds, n)
		fill()
		var got int
		var err error
		allocs := mallocs(func() { got, err = applyRows(v, &ds, b, &c, nil) })
		if err != nil || got != n {
			t.Fatalf("%s of %d rows touched %d, %v", ds, n, got, err)
		}
		return allocs
	}
	// Warm the table's scratch: the write positions, the free list.
	for _, ds := range []DiffSchema{del, upd, del} {
		apply(ds, most)
	}
	for _, ds := range []DiffSchema{del, upd} {
		small, large := apply(ds, 16), apply(ds, most)
		if ds.Type == DiffUpdate {
			small, large = small-16, large-most // the stored row images
		}
		if small != large {
			t.Errorf("%s: %d objects for 16 rows, %d for %d", ds, small, large, most)
		}
	}
}

// TestUnreadBaseDiffNotBound: Q11's script declares ∆u_user(post: city), but
// no step reads it — user.city is in no predicate of Q11 and its input cache
// does not hold it. The compiled script does not bind it and a System
// holding only Q11 registers no feed slot for it, so no round populates it.
// Registering Q*1, which joins on city, adds the slot.
func TestUnreadBaseDiffNotBound(t *testing.T) {
	cityUpd := DiffSchema{Type: DiffUpdate, Rel: "user", IDs: []string{"uid"},
		Pre: []string{"city", "tweetsnum", "favornum"}, Post: []string{"city"}}
	hasCitySlot := func(s *System) bool {
		sl := s.slots["user"]
		for _, ds := range sl.schemas {
			if ds.Equal(cityUpd) {
				return true
			}
		}
		return false
	}
	ds := bsma.Build(bsma.Defaults(20))
	sys := NewSystem(ds.DB)
	for _, q := range []string{"Q11", "Q*1"} {
		plan, err := ds.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		v, err := sys.RegisterView(q, plan, ModeID)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(v.Script.Base["user"], cityUpd.Equal)
		if i < 0 {
			t.Fatalf("%s declares no %s", q, cityUpd)
		}
		_, bound := v.Script.slotOf[BaseBindName("user", i)]
		if want := q == "Q*1"; bound != want || hasCitySlot(sys) != want {
			t.Errorf("%s: %s bound %v, feed slot %v; want %v", q, cityUpd, bound, hasCitySlot(sys), want)
		}
	}
}
