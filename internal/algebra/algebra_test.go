package algebra_test

import (
	"math/rand"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// bindEnv layers named relation bindings over a database.
type bindEnv struct {
	*db.Database
	rels map[string]*rel.Relation
}

func (b *bindEnv) Bound(name string) (*rel.Binding, error) {
	if r, ok := b.rels[name]; ok {
		return rel.BindRelation(r), nil
	}
	return b.Database.Bound(name)
}

// runningExampleDB builds the paper's Figure 2 instance.
func runningExampleDB(t testing.TB) *db.Database {
	t.Helper()
	d := db.New()
	parts := d.MustCreateTable("parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
	parts.MustInsert(rel.String("P1"), rel.Int(10))
	parts.MustInsert(rel.String("P2"), rel.Int(20))

	devices := d.MustCreateTable("devices", rel.NewSchema([]string{"did", "category"}, []string{"did"}))
	devices.MustInsert(rel.String("D1"), rel.String("phone"))
	devices.MustInsert(rel.String("D2"), rel.String("phone"))
	devices.MustInsert(rel.String("D3"), rel.String("tablet"))

	dp := d.MustCreateTable("devices_parts", rel.NewSchema([]string{"did", "pid"}, []string{"did", "pid"}))
	dp.MustInsert(rel.String("D1"), rel.String("P1"))
	dp.MustInsert(rel.String("D2"), rel.String("P1"))
	dp.MustInsert(rel.String("D1"), rel.String("P2"))
	return d
}

// runningExamplePlan is the view V of Figure 1b:
// SELECT did, pid, price FROM parts ⋈ devices_parts ⋈ σ[category=phone]devices.
func runningExamplePlan(d *db.Database) algebra.Node {
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	devices, _ := d.Table("devices")

	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	sd := algebra.NewScan("devices", "", devices.Schema())

	j1 := algebra.NewJoin(sp, sdp, expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid")))
	selDev := algebra.NewSelect(sd, expr.Eq(expr.C("devices.category"), expr.StrLit("phone")))
	j2 := algebra.NewJoin(j1, selDev, expr.Eq(expr.C("devices_parts.did"), expr.C("devices.did")))
	return algebra.NewProject(j2, []algebra.ProjItem{
		{E: expr.C("devices_parts.did"), As: "did"},
		{E: expr.C("devices_parts.pid"), As: "pid"},
		{E: expr.C("parts.price"), As: "price"},
	})
}

func eval(t testing.TB, n algebra.Node, env algebra.Env) *rel.Relation {
	t.Helper()
	r, err := algebra.Eval(n, env)
	if err != nil {
		t.Fatalf("eval %s: %v", n, err)
	}
	return r
}

func TestRunningExampleView(t *testing.T) {
	d := runningExampleDB(t)
	plan := runningExamplePlan(d)
	got := eval(t, plan, d).Sorted()
	want := rel.NewRelation(rel.NewSchema([]string{"did", "pid", "price"}, nil))
	want.Add(rel.Tuple{rel.String("D1"), rel.String("P1"), rel.Int(10)})
	want.Add(rel.Tuple{rel.String("D2"), rel.String("P1"), rel.Int(10)})
	want.Add(rel.Tuple{rel.String("D1"), rel.String("P2"), rel.Int(20)})
	if !got.EqualSet(want) {
		t.Fatalf("view mismatch:\n%v", got)
	}
}

func TestEnsureIDsExtendsProjection(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	// Projection that drops the key.
	p := algebra.NewProject(sp, []algebra.ProjItem{{E: expr.C("parts.price"), As: "price"}})
	if len(p.Schema().Key) != 0 {
		t.Fatal("projection dropping key should have no IDs before pass 1")
	}
	fixed, err := algebra.EnsureIDs(p)
	if err != nil {
		t.Fatal(err)
	}
	s := fixed.Schema()
	if !s.Has("parts.pid") || len(s.Key) != 1 || s.Key[0] != "parts.pid" {
		t.Fatalf("pass 1 must add the ID attribute: %v", s)
	}
	// Cardinality unchanged.
	if eval(t, fixed, d).Len() != 2 {
		t.Fatal("EnsureIDs must not change cardinality")
	}
}

func TestEnsureIDsShadowError(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	p := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.AddE(expr.C("parts.price"), expr.IntLit(1)), As: "parts.pid"},
	})
	if _, err := algebra.EnsureIDs(p); err == nil {
		t.Fatal("shadowing an ID with a computed column must fail")
	}
}

func TestIDInferenceRules(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	devices, _ := d.Table("devices")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sd := algebra.NewScan("devices", "", devices.Schema())

	// Table 1: SCAN(R) → key(R)
	if k := sp.Schema().Key; len(k) != 1 || k[0] != "parts.pid" {
		t.Errorf("scan IDs = %v", k)
	}
	// σ keeps IDs.
	sel := algebra.NewSelect(sp, expr.Gt(expr.C("parts.price"), expr.IntLit(0)))
	if k := sel.Schema().Key; len(k) != 1 || k[0] != "parts.pid" {
		t.Errorf("select IDs = %v", k)
	}
	// Join: union of IDs.
	j := algebra.NewJoin(sp, sd, expr.True())
	if k := j.Schema().Key; len(k) != 2 {
		t.Errorf("join IDs = %v", k)
	}
	// Antisemijoin: left IDs.
	aj := algebra.NewAntiJoin(sp, sd, expr.Eq(expr.C("parts.pid"), expr.C("devices.did")))
	if k := aj.Schema().Key; len(k) != 1 || k[0] != "parts.pid" {
		t.Errorf("antijoin IDs = %v", k)
	}
	// Group-by: grouping attributes.
	g := algebra.NewGroupBy(sp, []string{"parts.price"}, []algebra.Agg{
		{Fn: algebra.AggCount, As: "n"},
	})
	if k := g.Schema().Key; len(k) != 1 || k[0] != "parts.price" {
		t.Errorf("group-by IDs = %v", k)
	}
	// Union-all: union of IDs plus branch attr.
	sp2 := algebra.NewScan("parts", "parts2", parts.Schema())
	p1 := algebra.Keep(sp, "parts.pid", "parts.price")
	p2 := algebra.NewProject(sp2, []algebra.ProjItem{
		{E: expr.C("parts2.pid"), As: "parts.pid"},
		{E: expr.C("parts2.price"), As: "parts.price"},
	})
	// p2 has no key (renamed); give it one via EnsureIDs on p1 only.
	u := algebra.NewUnionAll("b", p1, p1)
	if k := u.Schema().Key; len(k) != 2 || k[1] != "b" {
		t.Errorf("union IDs = %v", k)
	}
	_ = p2
}

func TestGroupByAggregates(t *testing.T) {
	d := runningExampleDB(t)
	plan := runningExamplePlan(d)
	g := algebra.NewGroupBy(plan, []string{"did"}, []algebra.Agg{
		{Fn: algebra.AggSum, Arg: expr.C("price"), As: "cost"},
		{Fn: algebra.AggCount, As: "n"},
		{Fn: algebra.AggAvg, Arg: expr.C("price"), As: "avgp"},
		{Fn: algebra.AggMin, Arg: expr.C("price"), As: "minp"},
		{Fn: algebra.AggMax, Arg: expr.C("price"), As: "maxp"},
	})
	got := eval(t, g, d).Sorted()
	want := rel.NewRelation(got.Schema)
	want.Add(rel.Tuple{rel.String("D1"), rel.Int(30), rel.Int(2), rel.Float(15), rel.Int(10), rel.Int(20)})
	want.Add(rel.Tuple{rel.String("D2"), rel.Int(10), rel.Int(1), rel.Float(10), rel.Int(10), rel.Int(10)})
	if !got.EqualSet(want) {
		t.Fatalf("aggregate mismatch:\n%v\nwant\n%v", got, want)
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	pred := expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid"))

	semi := eval(t, algebra.NewSemiJoin(sp, sdp, pred), d)
	if semi.Len() != 2 {
		t.Fatalf("semijoin len = %d, want 2", semi.Len())
	}
	anti := eval(t, algebra.NewAntiJoin(sp, sdp, pred), d)
	if anti.Len() != 0 {
		t.Fatalf("antijoin len = %d, want 0", anti.Len())
	}
	// Remove P2's containment: P2 should appear in the antijoin.
	if _, err := d.Table("devices_parts"); err != nil {
		t.Fatal(err)
	}
	tdp, _ := d.Table("devices_parts")
	tdp.DeleteKey([]rel.Value{rel.String("D1"), rel.String("P2")})
	anti = eval(t, algebra.NewAntiJoin(sp, sdp, pred), d)
	if anti.Len() != 1 || anti.Tuples[0][0].Text() != "P2" {
		t.Fatalf("antijoin after delete = %v", anti)
	}
}

func TestUnionAllBranchAttr(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	u := algebra.NewUnionAll("b", sp, sp, sp)
	got := eval(t, u, d)
	if got.Len() != 6 {
		t.Fatalf("union len = %d", got.Len())
	}
	counts := map[int64]int{}
	bi := got.Schema.Index("b")
	for _, tup := range got.Tuples {
		counts[tup[bi].AsInt()]++
	}
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("branch counts = %v, want 2 rows on each of 0, 1 and 2", counts)
	}

	// An untagged union appends nothing, has no key and takes the branches
	// of an untagged union among its own; a tagged one keeps it a branch.
	flat := algebra.NewUnionAll("", algebra.NewUnionAll("", sp, sp), sp)
	if sch := flat.Schema(); len(flat.Branches) != 3 || len(sch.Attrs) != 2 || len(sch.Key) != 0 {
		t.Fatalf("untagged union of a union and a scan: %d branches, schema %v key %v", len(flat.Branches), sch.Attrs, sch.Key)
	}
	if got := eval(t, flat, d); got.Len() != 6 {
		t.Fatalf("untagged union len = %d", got.Len())
	}
	if nested := algebra.NewUnionAll("b", algebra.NewUnionAll("", sp, sp), sp); len(nested.Branches) != 2 {
		t.Fatalf("tagged union flattened its untagged branch: %s", nested)
	}
	if _, err := algebra.EnsureIDs(flat); err == nil {
		t.Error("EnsureIDs accepted an untagged union, which has no IDs")
	}
}

func TestNaturalJoin(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	nj, err := algebra.NaturalJoin(sp, sdp)
	if err != nil {
		t.Fatal(err)
	}
	if got := eval(t, nj, d).Len(); got != 3 {
		t.Fatalf("natural join len = %d, want 3", got)
	}
	renamed := algebra.NewProject(algebra.NewScan("parts", "zz", parts.Schema()), []algebra.ProjItem{{E: expr.C("zz.pid"), As: "q"}})
	if _, err := algebra.NaturalJoin(algebra.Keep(sp, "parts.price"), renamed); err == nil {
		t.Error("natural join without shared attributes must fail, not become a cross product")
	}
}

func TestRelRefBinding(t *testing.T) {
	d := runningExampleDB(t)
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{}}
	sch := rel.NewSchema([]string{"pid", "delta"}, []string{"pid"})
	r := rel.NewRelation(sch)
	r.Add(rel.Tuple{rel.String("P1"), rel.Int(1)})
	env.rels["diff"] = r

	ref := algebra.NewRelRef("diff", sch)
	got := eval(t, ref, env)
	if got.Len() != 1 {
		t.Fatalf("relref len = %d", got.Len())
	}
	if _, err := algebra.Eval(algebra.NewRelRef("missing", sch), env); err == nil {
		t.Fatal("unbound relref must error")
	}
}

func TestJoinCostUsesIndex(t *testing.T) {
	d := runningExampleDB(t)
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{}}
	sch := rel.NewSchema([]string{"pid"}, []string{"pid"})
	diff := rel.NewRelation(sch)
	diff.Add(rel.Tuple{rel.String("P1")})
	env.rels["diff"] = diff

	dp, _ := d.Table("devices_parts")
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	j := algebra.NewJoin(algebra.NewRelRef("diff", sch), sdp,
		expr.Eq(expr.C("pid"), expr.C("devices_parts.pid")))

	d.Counter().Reset()
	got := eval(t, j, env)
	if got.Len() != 2 {
		t.Fatalf("join len = %d, want 2", got.Len())
	}
	c := *d.Counter()
	// Index nested loop: 1 lookup for the single diff tuple + 2 matched reads.
	if c.IndexLookups != 1 || c.TupleReads != 2 {
		t.Fatalf("expected index join costs (1 lookup, 2 reads), got %v", c)
	}
}

func TestWithState(t *testing.T) {
	d := runningExampleDB(t)
	d.EnableLogging("parts")
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())

	if _, err := d.Update("parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)}); err != nil {
		t.Fatal(err)
	}

	post := eval(t, algebra.WithState(sp, rel.StatePost), d)
	pre := eval(t, algebra.WithState(sp, rel.StatePre), d)
	findPrice := func(r *rel.Relation) int64 {
		for _, tup := range r.Tuples {
			if tup[0].Text() == "P1" {
				return tup[1].AsInt()
			}
		}
		return -1
	}
	if findPrice(pre) != 10 || findPrice(post) != 11 {
		t.Fatalf("pre=%d post=%d", findPrice(pre), findPrice(post))
	}
}

func TestThetaJoinNonEqui(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp1 := algebra.NewScan("parts", "a", parts.Schema())
	sp2 := algebra.NewScan("parts", "b", parts.Schema())
	j := algebra.NewJoin(sp1, sp2, expr.Lt(expr.C("a.price"), expr.C("b.price")))
	got := eval(t, j, d)
	if got.Len() != 1 {
		t.Fatalf("theta join len = %d, want 1 (10<20)", got.Len())
	}
}

// Randomized equivalence: index-probed joins must agree with a brute-force
// nested loop on random data.
func TestJoinStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		d := db.New()
		l := d.MustCreateTable("l", rel.NewSchema([]string{"id", "k", "v"}, []string{"id"}))
		r := d.MustCreateTable("r", rel.NewSchema([]string{"id", "k", "w"}, []string{"id"}))
		for i := 0; i < 30; i++ {
			l.MustInsert(rel.Int(int64(i)), rel.Int(int64(rng.Intn(8))), rel.Int(int64(rng.Intn(100))))
		}
		for i := 0; i < 30; i++ {
			r.MustInsert(rel.Int(int64(i)), rel.Int(int64(rng.Intn(8))), rel.Int(int64(rng.Intn(100))))
		}
		sl := algebra.NewScan("l", "", l.Schema())
		sr := algebra.NewScan("r", "", r.Schema())
		pred := expr.And(
			expr.Eq(expr.C("l.k"), expr.C("r.k")),
			expr.Lt(expr.C("l.v"), expr.C("r.w")))

		indexed := eval(t, algebra.NewJoin(sl, sr, pred), d)

		// Brute force via pure theta (hide the equi pair inside an OR to
		// defeat EquiPairs extraction).
		bruteForce := eval(t, algebra.NewJoin(sl, sr, expr.And(
			expr.Or(expr.Eq(expr.C("l.k"), expr.C("r.k")), expr.Eq(expr.C("l.k"), expr.C("r.k"))),
			expr.Lt(expr.C("l.v"), expr.C("r.w")))), d)

		if !indexed.EqualSet(bruteForce) {
			t.Fatalf("trial %d: join strategies disagree (%d vs %d tuples)",
				trial, indexed.Len(), bruteForce.Len())
		}
	}
}

func TestProjectWithFunctions(t *testing.T) {
	d := runningExampleDB(t)
	parts, _ := d.Table("parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	p := algebra.NewProject(sp, []algebra.ProjItem{
		{E: expr.C("parts.pid"), As: "parts.pid"},
		{E: expr.MulE(expr.C("parts.price"), expr.IntLit(2)), As: "double"},
	})
	got := eval(t, p, d).Sorted()
	if got.Len() != 2 || !got.Tuples[0][1].Same(rel.Int(20)) {
		t.Fatalf("project mismatch: %v", got)
	}
	if k := p.Schema().Key; len(k) != 1 || k[0] != "parts.pid" {
		t.Errorf("projection keeping key should retain IDs, got %v", k)
	}
}

func TestBaseTables(t *testing.T) {
	d := runningExampleDB(t)
	plan := runningExamplePlan(d)
	tables := algebra.BaseTables(plan)
	if len(tables) != 3 {
		t.Fatalf("BaseTables = %v", tables)
	}
}
