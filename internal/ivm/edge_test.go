package ivm_test

import (
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// Views registered over empty base tables must materialize empty and pick
// up the very first insertions.
func TestViewOverEmptyTables(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := db.New()
			d.MustCreateTable("parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
			d.MustCreateTable("devices", rel.NewSchema([]string{"did", "category"}, []string{"did"}))
			d.MustCreateTable("devices_parts", rel.NewSchema([]string{"did", "pid"}, []string{"did", "pid"}))

			s := ivm.NewSystem(d)
			s.SelfCheck = true
			register(t, s, "Vagg", aggPlan(t, d), mode)
			vt, _ := d.Table("Vagg")
			if vt.Len() != 0 {
				t.Fatalf("empty view expected, got %d", vt.Len())
			}
			if err := d.Insert("parts", rel.Tuple{rel.String("P1"), rel.Int(10)}); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert("devices", rel.Tuple{rel.String("D1"), rel.String("phone")}); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert("devices_parts", rel.Tuple{rel.String("D1"), rel.String("P1")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 1 {
				t.Fatalf("first group missing: %d rows", vt.Len())
			}
		})
	}
}

// Maintenance with an empty log is a no-op and must be access-free in ID
// mode for the SPJ view.
func TestEmptyMaintenanceIsFree(t *testing.T) {
	d := fig2DB(t)
	s := ivm.NewSystem(d)
	register(t, s, "V", spjPlan(t, d), ivm.ModeID)
	d.Counter().Reset()
	reports, err := s.MaintainAll()
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].DiffTuples != 0 {
		t.Fatalf("diff tuples = %d", reports[0].DiffTuples)
	}
	if total := reports[0].Phases.Total().Total(); total != 0 {
		t.Fatalf("empty maintenance cost %d accesses", total)
	}
}

// A right-side update not touching the semijoin condition must produce no
// work at all ("not triggered", Table 13).
func TestSemijoinRightUpdateNotTriggered(t *testing.T) {
	d := fig2DB(t)
	// parts ⋉ devices_parts on pid: updates to devices (not referenced)
	// or to non-condition attrs are irrelevant; here we check an update to
	// the LEFT's non-condition attr flows and a right-side-irrelevant one
	// doesn't disturb anything.
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	plan := algebra.NewSemiJoin(sp, sdp, expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid")))

	s := ivm.NewSystem(d)
	s.SelfCheck = true
	register(t, s, "used", plan, ivm.ModeID)

	mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(99)})
	d.Counter().Reset()
	maintainAndCheck(t, s)
	vt, _ := d.Table("used")
	row, ok := vt.Get(rel.StatePost, []rel.Value{rel.String("P1")})
	if !ok || !row[1].Equal(rel.Int(99)) {
		t.Fatalf("P1 = %v", row)
	}
}

// Three-way union via two stacked union-all operators.
func TestThreeWayUnion(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := db.New()
			mk := func(name string) *storage.Handle {
				tb := d.MustCreateTable(name, rel.NewSchema([]string{"k", "v"}, []string{"k"}))
				tb.MustInsert(rel.Int(1), rel.String(name))
				return tb
			}
			mk("t1")
			mk("t2")
			mk("t3")
			scan := func(name string) algebra.Node {
				tb, _ := d.Table(name)
				s := algebra.NewScan(name, name, tb.Schema())
				return algebra.NewProject(s, []algebra.ProjItem{
					{E: expr.C(name + ".k"), As: "k"},
					{E: expr.C(name + ".v"), As: "v"},
				})
			}
			fix := func(n algebra.Node) algebra.Node {
				f, err := algebra.EnsureIDs(n)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			u12 := algebra.NewUnionAll("b1", fix(scan("t1")), fix(scan("t2")))
			p12 := algebra.Keep(u12, "k", "v", "b1")
			t3 := algebra.NewProject(fix(scan("t3")), []algebra.ProjItem{
				{E: expr.C("k"), As: "k"},
				{E: expr.C("v"), As: "v"},
				{E: expr.IntLit(0), As: "b1"},
			})
			t3fixed := fix(t3)
			// Align attribute lists (t3fixed may have appended its key copy).
			u := algebra.NewUnionAll("b2", algebra.Keep(p12, "k", "v", "b1"),
				algebra.Keep(t3fixed, "k", "v", "b1"))

			s := ivm.NewSystem(d)
			register(t, s, "all3", u, mode)
			vt, _ := d.Table("all3")
			if vt.Len() != 3 {
				t.Fatalf("union3 = %d rows, want 3", vt.Len())
			}
			if _, err := d.Update("t2", []rel.Value{rel.Int(1)}, []string{"v"}, []rel.Value{rel.String("x")}); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert("t3", rel.Tuple{rel.Int(2), rel.String("y")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 4 {
				t.Fatalf("union3 after churn = %d, want 4", vt.Len())
			}
		})
	}
}

// Selectivity zero: the view is permanently empty, and maintenance must
// stay cheap and correct (all diffs are dummies).
func TestZeroSelectivityView(t *testing.T) {
	d := fig2DB(t)
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	devices, _ := d.Table("devices")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	sd := algebra.NewScan("devices", "", devices.Schema())
	plan := algebra.NewJoin(
		algebra.NewJoin(sp, sdp, expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid"))),
		algebra.NewSelect(sd, expr.Eq(expr.C("devices.category"), expr.StrLit("fridge"))),
		expr.Eq(expr.C("devices_parts.did"), expr.C("devices.did")))

	s := ivm.NewSystem(d)
	s.SelfCheck = true
	register(t, s, "fridges", plan, ivm.ModeID)
	mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(1)})
	reports := maintainAndCheck(t, s)
	vt, _ := d.Table("fridges")
	if vt.Len() != 0 {
		t.Fatalf("fridge view must stay empty, got %d", vt.Len())
	}
	// The dummy update costs exactly its view index lookup (overestimation
	// cost, Section 1).
	if c := reports[0].Phases.Cost[ivm.PhaseViewUpdate]; c.IndexLookups != 1 || c.TupleWrites != 0 {
		t.Fatalf("dummy apply cost = %v", c)
	}
}

// COUNT-only aggregate views exercise the Table 11 path end to end.
func TestCountOnlyAggregate(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			plan := algebra.NewGroupBy(spjPlan(t, d), []string{"devices_parts.did"},
				[]algebra.Agg{{Fn: algebra.AggCount, As: "nparts"}})
			s := ivm.NewSystem(d)
			s.SelfCheck = true
			register(t, s, "counts", plan, mode)
			vt, _ := d.Table("counts")

			row, _ := vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(2)) {
				t.Fatalf("D1 count = %v", row)
			}
			// Updates to price must NOT change counts (and should be cheap).
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(999)})
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(2)) {
				t.Fatalf("D1 count after price change = %v", row)
			}
			// A dangling containment (no such part) joins nothing and must
			// not change any count.
			if err := d.Insert("devices_parts", rel.Tuple{rel.String("D1"), rel.String("PGHOST")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(2)) {
				t.Fatalf("D1 count after dangling containment = %v", row)
			}
			// Containment churn with a real part changes counts.
			if err := d.Insert("parts", rel.Tuple{rel.String("P9"), rel.Int(5)}); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert("devices_parts", rel.Tuple{rel.String("D1"), rel.String("P9")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(3)) {
				t.Fatalf("D1 count after insert = %v", row)
			}
		})
	}
}

// A selection over a join whose predicate attribute is updated: a tuple
// entering the selection needs its other attributes (here the joined
// devices_parts columns), which a partial-ID update diff does not carry.
// The fast path used to drop such tuples silently; it now fetches them
// from Input_post.
func TestSelectUpdateEnteringOverJoin(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		d := fig2DB(t)
		parts, _ := d.Table("parts")
		dp, _ := d.Table("devices_parts")
		plan := algebra.NewSelect(algebra.NewJoin(
			algebra.NewScan("parts", "", parts.Schema()),
			algebra.NewScan("devices_parts", "", dp.Schema()),
			expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid"))),
			expr.Gt(expr.C("parts.price"), expr.IntLit(10)))
		s := ivm.NewSystem(d)
		register(t, s, "sel", plan, mode)
		vt, _ := d.Table("sel")
		before := vt.Len()
		mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)})
		maintainAndCheck(t, s)
		if got := vt.Len(); got != before+2 {
			t.Errorf("%s: P1's two containments should enter the view: %d → %d rows", mode, before, got)
		}
	}
}
