package algebra_test

import (
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

func TestEmptyNode(t *testing.T) {
	d := db.New()
	sch := rel.NewSchema([]string{"a"}, []string{"a"})
	r := eval(t, &algebra.Empty{Sch: sch}, d)
	if r.Len() != 0 {
		t.Fatalf("empty node evaluated to %d rows", r.Len())
	}
	if (&algebra.Empty{Sch: sch}).String() != "∅" {
		t.Error("empty String")
	}
}

func TestRenamedStoredRefProbing(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	ref := algebra.NewStoredRef("parts", parts.Schema(), rel.StatePost).Renamed("@x")

	// The renamed ref evaluates with suffixed attribute names…
	r := eval(t, ref, d)
	if !r.Schema.Has("pid@x") || !r.Schema.Has("price@x") {
		t.Fatalf("renamed schema = %v", r.Schema.Attrs)
	}
	// …and remains index-probeable through the Bare mapping: a join
	// against it should cost lookups, not a scan.
	sch := rel.NewSchema([]string{"k"}, []string{"k"})
	diff := rel.NewRelation(sch)
	diff.Add(rel.Tuple{rel.String("P1")})
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"diff": diff}}
	j := algebra.NewJoin(algebra.NewRelRef("diff", sch), ref, expr.Eq(expr.C("k"), expr.C("pid@x")))
	d.Counter().Reset()
	got := eval(t, j, env)
	if got.Len() != 1 {
		t.Fatalf("join len = %d", got.Len())
	}
	if c := *d.Counter(); c.IndexLookups != 1 || c.TupleReads != 1 {
		t.Fatalf("renamed ref should probe, got %v", c)
	}
}

func TestSemiJoinProbeLeft(t *testing.T) {
	d := runningExampleDB(t)
	dp, _ := d.Table("devices_parts")
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())

	keys := rel.NewRelation(rel.NewSchema([]string{"kpid"}, []string{"kpid"}))
	keys.Add(rel.Tuple{rel.String("P1")})
	keys.Add(rel.Tuple{rel.String("P1")}) // duplicate key must not duplicate output
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": keys}}

	semi := algebra.NewSemiJoin(sdp,
		algebra.NewRelRef("keys", keys.Schema),
		expr.Eq(expr.C("devices_parts.pid"), expr.C("kpid")))
	d.Counter().Reset()
	got := eval(t, semi, env)
	if got.Len() != 2 {
		t.Fatalf("semijoin len = %d, want 2 (D1/P1, D2/P1)", got.Len())
	}
	c := *d.Counter()
	// Probe-left: one lookup for the (deduplicated) key, two matched reads
	// — not a 3-row scan of devices_parts plus bookkeeping.
	if c.IndexLookups != 1 || c.TupleReads != 2 {
		t.Fatalf("probe-left expected (1 lookup, 2 reads), got %v", c)
	}
}

func TestSemiJoinEmptyKeySetIsFree(t *testing.T) {
	d := runningExampleDB(t)
	dp, _ := d.Table("devices_parts")
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	keys := rel.NewRelation(rel.NewSchema([]string{"kpid"}, []string{"kpid"}))
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": keys}}
	semi := algebra.NewSemiJoin(sdp, algebra.NewRelRef("keys", keys.Schema),
		expr.Eq(expr.C("devices_parts.pid"), expr.C("kpid")))
	d.Counter().Reset()
	got := eval(t, semi, env)
	if got.Len() != 0 {
		t.Fatalf("len = %d", got.Len())
	}
	if c := *d.Counter(); c.Total() != 0 {
		t.Fatalf("empty key set must not touch stored data, got %v", c)
	}
}

func TestNonEquiSemiAndAntiJoin(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	a := algebra.NewScan("parts", "a", parts.Schema())
	b := algebra.NewScan("parts", "b", parts.Schema())
	pred := expr.Lt(expr.C("a.price"), expr.C("b.price"))
	semi := eval(t, algebra.NewSemiJoin(a, b, pred), d)
	if semi.Len() != 1 || semi.Tuples[0][0].Text() != "P1" {
		t.Fatalf("non-equi semijoin = %v", semi)
	}
	anti := eval(t, algebra.NewAntiJoin(a, b, pred), d)
	if anti.Len() != 1 || anti.Tuples[0][0].Text() != "P2" {
		t.Fatalf("non-equi antijoin = %v", anti)
	}
}

func TestGroupByNullHandling(t *testing.T) {
	d := db.New()
	tb := d.MustCreateTable("t", rel.NewSchema([]string{"k", "g", "v"}, []string{"k"}))
	tb.MustInsert(rel.Int(1), rel.String("a"), rel.Int(10))
	tb.MustInsert(rel.Int(2), rel.String("a"), rel.Null())
	tb.MustInsert(rel.Int(3), rel.String("b"), rel.Null())
	st := algebra.NewScan("t", "", tb.Schema())
	g := algebra.NewGroupBy(st, []string{"t.g"}, []algebra.Agg{
		{Fn: algebra.AggSum, Arg: expr.C("t.v"), As: "s"},
		{Fn: algebra.AggCount, Arg: expr.C("t.v"), As: "nv"},
		{Fn: algebra.AggCount, As: "n"},
		{Fn: algebra.AggAvg, Arg: expr.C("t.v"), As: "avg"},
		{Fn: algebra.AggMin, Arg: expr.C("t.v"), As: "mn"},
	})
	r := eval(t, g, d).Sorted()
	// group "a": sum 10 (null skipped), count(v)=1, count(*)=2, avg 10, min 10.
	ga := r.Tuples[0]
	if !ga[1].Same(rel.Int(10)) || !ga[2].Same(rel.Int(1)) || !ga[3].Same(rel.Int(2)) ||
		!ga[4].Same(rel.Float(10)) || !ga[5].Same(rel.Int(10)) {
		t.Fatalf("group a = %v", ga)
	}
	// group "b": all-null → sum NULL, counts 0/1, avg NULL, min NULL.
	gb := r.Tuples[1]
	if !gb[1].IsNull() || !gb[2].Same(rel.Int(0)) || !gb[3].Same(rel.Int(1)) ||
		!gb[4].IsNull() || !gb[5].IsNull() {
		t.Fatalf("group b = %v", gb)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	d := db.New()
	l := d.MustCreateTable("l", rel.NewSchema([]string{"k", "x"}, []string{"k"}))
	r := d.MustCreateTable("r", rel.NewSchema([]string{"k", "y"}, []string{"k"}))
	l.MustInsert(rel.Int(1), rel.Null())
	l.MustInsert(rel.Int(2), rel.Int(7))
	r.MustInsert(rel.Int(3), rel.Null())
	r.MustInsert(rel.Int(4), rel.Int(7))
	sl := algebra.NewScan("l", "", l.Schema())
	sr := algebra.NewScan("r", "", r.Schema())
	j := eval(t, algebra.NewJoin(sl, sr, expr.Eq(expr.C("l.x"), expr.C("r.y"))), d)
	if j.Len() != 1 {
		t.Fatalf("null keys must not match: %d rows", j.Len())
	}
}

func TestWithStateCoversAllNodes(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())

	plan := algebra.NewGroupBy(
		algebra.NewSelect(
			algebra.NewProject(
				algebra.NewJoin(sp, sdp, expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid"))),
				[]algebra.ProjItem{
					{E: expr.C("parts.pid"), As: "parts.pid"},
					{E: expr.C("devices_parts.did"), As: "devices_parts.did"},
					{E: expr.C("parts.price"), As: "price"},
				}),
			expr.Gt(expr.C("price"), expr.IntLit(0))),
		[]string{"devices_parts.did"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("price"), As: "s"}})

	pre := algebra.WithState(plan, rel.StatePre)
	scans := algebra.Scans(pre)
	if len(scans) != 2 {
		t.Fatalf("scans = %d", len(scans))
	}
	for _, s := range scans {
		if s.St != rel.StatePre {
			t.Fatal("WithState must retarget every scan")
		}
	}
	// Original untouched.
	for _, s := range algebra.Scans(plan) {
		if s.St != rel.StatePost {
			t.Fatal("WithState must not mutate the original")
		}
	}
	// Union, semijoin, antijoin and stored refs too.
	u := algebra.NewUnionAll("b", sp, sp)
	if algebra.WithState(u, rel.StatePre).(*algebra.UnionAll).Branches[0].(*algebra.Scan).St != rel.StatePre {
		t.Fatal("union children not retargeted")
	}
	ref := algebra.NewStoredRef("parts", parts.Schema(), rel.StatePost)
	if algebra.WithState(ref, rel.StatePre).(*algebra.RelRef).St != rel.StatePre {
		t.Fatal("stored ref not retargeted")
	}
	plain := algebra.NewRelRef("x", parts.Schema())
	if algebra.WithState(plain, rel.StatePre).(*algebra.RelRef).St != rel.StatePost {
		t.Fatal("derived ref must keep its (irrelevant) state zero value")
	}
}

func TestKeyMapping(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())

	renamed := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.C("parts.pid"), As: "id"},
		{E: expr.C("parts.price"), As: "price"},
	})
	m := renamed.KeyMapping()
	if m == nil || m["parts.pid"] != "id" {
		t.Fatalf("key mapping = %v", m)
	}
	if k := renamed.Schema().Key; len(k) != 1 || k[0] != "id" {
		t.Fatalf("renamed key = %v", k)
	}

	dropped := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.C("parts.price"), As: "price"},
	})
	if dropped.KeyMapping() != nil {
		t.Fatal("dropped key must yield nil mapping")
	}

	computed := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.Call("upper", expr.C("parts.pid")), As: "pid2"},
	})
	if computed.KeyMapping() != nil {
		t.Fatal("computed key must yield nil mapping")
	}

	// Same-name copy preferred over a rename when both exist.
	both := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.C("parts.pid"), As: "alias"},
		{E: expr.C("parts.pid"), As: "parts.pid"},
	})
	if m := both.KeyMapping(); m["parts.pid"] != "parts.pid" {
		t.Fatalf("same-name copy should win: %v", m)
	}
}

func TestEnsureIDsWithRenamedKey(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	renamed := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.C("parts.pid"), As: "id"},
	})
	fixed, err := algebra.EnsureIDs(renamed)
	if err != nil {
		t.Fatal(err)
	}
	// The rename already preserves the key: no extra column needed.
	s := fixed.Schema()
	if len(s.Attrs) != 1 || s.Key[0] != "id" {
		t.Fatalf("schema after EnsureIDs = %v key %v", s.Attrs, s.Key)
	}
}

func TestNodeStrings(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "p", parts.Schema())
	nodes := []algebra.Node{
		sp,
		algebra.NewSelect(sp, expr.Gt(expr.C("p.price"), expr.IntLit(1))),
		algebra.Keep(sp, "p.pid"),
		algebra.NewGroupBy(sp, []string{"p.price"}, []algebra.Agg{{Fn: algebra.AggCount, As: "n"}}),
		algebra.NewUnionAll("b", sp, sp),
		algebra.NewSemiJoin(sp, algebra.NewScan("parts", "q", parts.Schema()),
			expr.Eq(expr.C("p.pid"), expr.C("q.pid"))),
	}
	for _, n := range nodes {
		if strings.TrimSpace(n.String()) == "" {
			t.Errorf("%T has empty String()", n)
		}
	}
	if !strings.Contains(sp.String(), "AS p") {
		t.Error("aliased scan should render its alias")
	}
}

func TestTouchesStored(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	if !algebra.TouchesStored(sp) {
		t.Error("scan touches stored data")
	}
	plain := algebra.NewRelRef("x", parts.Schema())
	if algebra.TouchesStored(plain) {
		t.Error("derived ref does not touch stored data")
	}
	if !algebra.TouchesStored(algebra.NewStoredRef("parts", parts.Schema(), rel.StatePost)) {
		t.Error("stored ref touches stored data")
	}
	if algebra.TouchesStored(algebra.Keep(plain, "pid")) {
		t.Error("projection of derived data is derived")
	}
}

func TestConstructorPanics(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("unknown select col", func() {
		algebra.NewSelect(sp, expr.Gt(expr.C("nope"), expr.IntLit(0)))
	})
	expectPanic("duplicate projection name", func() {
		algebra.NewProject(sp, []algebra.ProjItem{
			{E: expr.C("parts.pid"), As: "x"},
			{E: expr.C("parts.price"), As: "x"},
		})
	})
	expectPanic("join attr collision", func() {
		algebra.NewJoin(sp, sp, expr.True())
	})
	expectPanic("union schema mismatch", func() {
		algebra.NewUnionAll("b", sp, algebra.Keep(sp, "parts.pid"))
	})
	expectPanic("union branch collision", func() {
		algebra.NewUnionAll("parts.pid", sp, sp)
	})
	expectPanic("agg without arg", func() {
		algebra.NewGroupBy(sp, []string{"parts.pid"}, []algebra.Agg{{Fn: algebra.AggSum, As: "s"}})
	})
}

func TestEvalErrors(t *testing.T) {
	d := db.New()
	sch := rel.NewSchema([]string{"a"}, []string{"a"})
	if _, err := algebra.Eval(algebra.NewScan("ghost", "", sch), d); err == nil {
		t.Error("scan of missing table must error")
	}
	if _, err := algebra.Eval(algebra.NewStoredRef("ghost", sch, rel.StatePost), d); err == nil {
		t.Error("stored ref to missing table must error")
	}
}
