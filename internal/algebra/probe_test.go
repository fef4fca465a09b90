package algebra_test

import (
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// TestAsProbeSelectWrappedRenamedRef covers the probe-shape analysis on a
// σ-wrapped stored RelRef with renamed attributes: the σ's literal
// equality folds into the index probe through the Bare mapping, NULL join
// keys are skipped without touching the index, and the compiled executor
// picks the same strategy with byte-identical access counts.
func TestAsProbeSelectWrappedRenamedRef(t *testing.T) {
	d := db.New()
	dev := d.MustCreateTable("dev", rel.NewSchema([]string{"did", "cat"}, []string{"did"}))
	dev.MustInsert(rel.String("D1"), rel.String("phone"))
	dev.MustInsert(rel.String("D2"), rel.String("tablet"))
	dev.MustInsert(rel.String("D3"), rel.Null())

	ref := algebra.NewStoredRef("dev", dev.Schema(), rel.StatePost).Renamed("@r")
	sel := algebra.NewSelect(ref, expr.Eq(expr.C("cat@r"), expr.StrLit("phone")))

	keySch := rel.NewSchema([]string{"k"}, []string{"k"})
	diff := rel.NewRelation(keySch)
	diff.Add(rel.Tuple{rel.String("D1")})
	diff.Add(rel.Tuple{rel.Null()})       // NULL join key: must be skipped, never probed
	diff.Add(rel.Tuple{rel.String("D9")}) // probes, matches nothing
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"diff": diff}}

	j := algebra.NewJoin(algebra.NewRelRef("diff", keySch), sel,
		expr.Eq(expr.C("k"), expr.C("did@r")))

	check := func(path string, got *rel.Relation) {
		t.Helper()
		if got.Len() != 1 {
			t.Fatalf("%s: join len = %d, want 1:\n%v", path, got.Len(), got)
		}
		row := got.Tuples[0]
		if row[0].Text() != "D1" || row[1].Text() != "D1" || row[2].Text() != "phone" {
			t.Fatalf("%s: row = %v", path, row)
		}
	}

	d.Counter().Reset()
	check("interpreted", eval(t, j, env))
	c := *d.Counter()
	// Two non-NULL keys probe the index with the folded cat="phone"
	// column appended; only the D1 probe matches, so one tuple read. The
	// NULL key costs nothing — NULL never equals anything, including the
	// stored NULL in D3's cat.
	if c.IndexLookups != 2 || c.TupleReads != 1 {
		t.Fatalf("interpreted probe expected (2 lookups, 1 read), got %v", c)
	}

	plan, err := algebra.Compile(j)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d.Counter().Reset()
	got, err := plan.Run(env)
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	check("compiled", got)
	if cc := *d.Counter(); cc != c {
		t.Fatalf("compiled counters %v != interpreted %v", cc, c)
	}
}

// TestAsProbeResidualThroughRenaming adds a non-foldable conjunct: the
// literal equality still narrows the probe while the residual filters the
// probed rows, all over the renamed (qualified) schema.
func TestAsProbeResidualThroughRenaming(t *testing.T) {
	d := db.New()
	it := d.MustCreateTable("items", rel.NewSchema([]string{"id", "grp", "qty"}, []string{"id"}))
	it.MustInsert(rel.Int(1), rel.String("a"), rel.Int(5))
	it.MustInsert(rel.Int(2), rel.String("a"), rel.Int(50))
	it.MustInsert(rel.Int(3), rel.String("b"), rel.Int(50))

	ref := algebra.NewStoredRef("items", it.Schema(), rel.StatePost).Renamed("@x")
	sel := algebra.NewSelect(ref, expr.And(
		expr.Eq(expr.C("grp@x"), expr.StrLit("a")),
		expr.Lt(expr.C("qty@x"), expr.IntLit(10)),
	))

	keySch := rel.NewSchema([]string{"g"}, []string{"g"})
	diff := rel.NewRelation(keySch)
	diff.Add(rel.Tuple{rel.String("a")})
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"diff": diff}}

	j := algebra.NewJoin(algebra.NewRelRef("diff", keySch), sel,
		expr.Eq(expr.C("g"), expr.C("grp@x")))

	d.Counter().Reset()
	got := eval(t, j, env)
	if got.Len() != 1 || got.Tuples[0][1].AsInt() != 1 {
		t.Fatalf("join = %v", got)
	}
	c := *d.Counter()
	// One probe on (grp, grp) — the join column and the folded literal
	// coincide here — reading the two grp=a rows; qty<10 filters after.
	if c.IndexLookups != 1 || c.TupleReads != 2 {
		t.Fatalf("expected (1 lookup, 2 reads), got %v", c)
	}

	plan, err := algebra.Compile(j)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d.Counter().Reset()
	cr, err := plan.Run(env)
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	if cr.Len() != 1 || cr.Tuples[0][1].AsInt() != 1 {
		t.Fatalf("compiled join = %v", cr)
	}
	if cc := *d.Counter(); cc != c {
		t.Fatalf("compiled counters %v != interpreted %v", cc, c)
	}
}

// TestParamsBindPerRun compiles a plan once with parameters in a stored σ
// (probed on its own) and in the probed side of a join, and runs it with
// each set of values: every run returns and charges what the plan with
// those values as literals does under Eval. Eval takes no parameters.
func TestParamsBindPerRun(t *testing.T) {
	d := db.New()
	it := d.MustCreateTable("items", rel.NewSchema([]string{"id", "grp", "qty"}, []string{"id"}))
	for i := int64(0); i < 12; i++ {
		it.MustInsert(rel.Int(i), rel.String(string(rune('a'+i%3))), rel.Int(i))
	}
	keySch := rel.NewSchema([]string{"g"}, []string{"g"})
	diff := rel.NewRelation(keySch)
	diff.Add(rel.Tuple{rel.String("a")})
	diff.Add(rel.Tuple{rel.String("b")})
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"diff": diff}}

	plan := func(id, qty expr.Expr) algebra.Node {
		point := algebra.NewSelect(algebra.NewScan("items", "p", it.Schema()), expr.Eq(expr.C("p.id"), id))
		probed := algebra.NewSelect(algebra.NewScan("items", "q", it.Schema()),
			expr.And(expr.Eq(expr.C("q.grp"), expr.StrLit("a")), expr.Eq(expr.C("q.qty"), qty), expr.Lt(expr.C("q.id"), id)))
		j := algebra.NewJoin(algebra.NewRelRef("diff", keySch), probed, expr.Eq(expr.C("g"), expr.C("q.grp")))
		return algebra.NewProject(algebra.NewJoin(point, j, expr.True()), []algebra.ProjItem{
			{E: expr.C("p.grp"), As: "pg"}, {E: expr.C("q.id"), As: "qid"}})
	}
	p, err := algebra.Compile(plan(expr.Param{I: 0}, expr.Param{I: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algebra.Eval(plan(expr.Param{I: 0}, expr.Param{I: 1}), env); err == nil {
		t.Fatal("Eval ran a plan with parameters")
	}
	for _, vals := range [][]rel.Value{{rel.Int(3), rel.Int(0)}, {rel.Int(11), rel.Int(6)}, {rel.Int(5), rel.Int(1)}, {rel.Int(99), rel.Int(9)}} {
		d.Counter().Reset()
		want := eval(t, plan(expr.V(vals[0]), expr.V(vals[1])), env)
		wantCost := *d.Counter()
		d.Counter().Reset()
		p.SetParams(vals)
		got, err := p.Run(env)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualSet(want) || *d.Counter() != wantCost || vals[0].AsInt() == 11 && got.Len() != 1 {
			t.Fatalf("params %v: %v charging %v, want %v charging %v", vals, got, *d.Counter(), want, wantCost)
		}
	}
}

// TestUniqueProbeChoiceOnSmallTables pins the index-vs-scan choice of a σ
// fixing a table's whole key, which matches p ≤ 1 rows: the probe (1 lookup +
// p reads) is taken exactly when p+1 < n, for n, the row count of the state
// read — over more than two rows without counting p. The tables hold 0–3
// rows before an epoch and up to two more after it, the key is present or
// absent, and both states are read: Eval and the compiled plan charge what
// that rule prescribes.
func TestUniqueProbeChoiceOnSmallTables(t *testing.T) {
	sch := rel.NewSchema([]string{"k", "v"}, []string{"k"})
	for pre := 0; pre <= 3; pre++ {
		for added := 0; added <= 2; added++ {
			d := db.New()
			tab := d.MustCreateTable("t", sch)
			for k := 0; k < pre; k++ {
				tab.MustInsert(rel.Int(int64(k)), rel.Int(int64(10*k)))
			}
			tab.BeginEpoch()
			for k := pre; k < pre+added; k++ {
				tab.MustInsert(rel.Int(int64(k)), rel.Int(int64(10*k)))
			}
			for _, st := range []rel.State{rel.StatePre, rel.StatePost} {
				n := pre
				if st == rel.StatePost {
					n += added
				}
				for _, key := range []int64{0, 9} {
					p := 0
					if key < int64(n) {
						p = 1
					}
					want := rel.CostCounter{TupleReads: int64(n)}
					if p+1 < n {
						want = rel.CostCounter{TupleReads: int64(p), IndexLookups: 1}
					}
					plan := algebra.NewSelect(algebra.NewScan("t", "", sch), expr.Eq(expr.C("t.k"), expr.IntLit(key)))
					plan = algebra.WithState(plan, st).(*algebra.Select)
					d.Counter().Reset()
					if _, err := algebra.Eval(plan, d); err != nil {
						t.Fatal(err)
					}
					evalCost := *d.Counter()
					d.Counter().Reset()
					rows, err := algebra.MustCompile(plan).Run(d)
					if err != nil {
						t.Fatal(err)
					}
					if got := *d.Counter(); got != want || evalCost != want || rows.Len() != p {
						t.Errorf("%d rows + %d, %v, k = %d: compiled charged %+v (%d rows), Eval %+v; want %+v (%d rows)",
							pre, added, st, key, got, rows.Len(), evalCost, want, p)
					}
				}
			}
			tab.EndEpoch()
		}
	}
}
