package ivm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// cascadeDB builds the base table for the cascade tests: item(id, region,
// grp, val), a two-level rollup hierarchy (region ⊃ grp), seeded so both
// engines hold identical instances.
func cascadeDB(t testing.TB, eng storage.Engine, rows int, seed int64) *db.Database {
	t.Helper()
	d := db.NewWith(eng)
	addItems(d, rows, seed)
	return d
}

// addItems creates and fills cascadeDB's item table in d.
func addItems(d *db.Database, rows int, seed int64) {
	item := d.MustCreateTable("item", rel.NewSchema([]string{"id", "region", "grp", "val"}, []string{"id"}))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		r := rng.Intn(4)
		item.MustInsert(rel.Int(int64(i)),
			rel.String(fmt.Sprintf("r%d", r)),
			rel.String(fmt.Sprintf("g%d-%d", r, rng.Intn(5))),
			rel.Int(int64(rng.Intn(50))))
	}
}

// rollupL1Plan is the level-0 view: per-(region, grp) sums over item, with
// bare output names so children can scan it like any base table.
func rollupL1Plan(d *db.Database) algebra.Node {
	item, _ := d.Table("item")
	g := algebra.NewGroupBy(algebra.NewScan("item", "", item.Schema()),
		[]string{"item.region", "item.grp"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("item.val"), As: "total"}})
	return algebra.NewProject(g, []algebra.ProjItem{
		{E: expr.C("item.region"), As: "region"},
		{E: expr.C("item.grp"), As: "grp"},
		{E: expr.C("total"), As: "total"},
	})
}

// rollupL2Plan is the level-1 view: per-region re-aggregation of v1 — a
// rollup over a rollup, scanning the parent view as a stored relation.
// Output names are bare again so a further level can stack on top.
func rollupL2Plan(d *db.Database, parent string) algebra.Node {
	p, _ := d.Table(parent)
	g := algebra.NewGroupBy(algebra.NewScan(parent, "", p.Schema()),
		[]string{parent + ".region"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C(parent + ".total"), As: "total"}})
	return algebra.NewProject(g, []algebra.ProjItem{
		{E: expr.C(parent + ".region"), As: "region"},
		{E: expr.C("total"), As: "total"},
	})
}

// flatRollupPlan is the flattened equivalent of v2 registered directly
// over the base table: per-region sums over item (sum is associative, so
// skipping the per-grp level is semantics-preserving).
func flatRollupPlan(d *db.Database) algebra.Node {
	item, _ := d.Table("item")
	return algebra.NewGroupBy(algebra.NewScan("item", "", item.Schema()),
		[]string{"item.region"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("item.val"), As: "total"}})
}

// mutateItems applies a seeded mix of updates, inserts and deletes to the
// item table through the logged catalog paths. nextID tracks the insert
// keyspace so the same rng drives identical streams on twin databases.
func mutateItems(t testing.TB, d *db.Database, rng *rand.Rand, rows int, nextID *int64) {
	t.Helper()
	for i := 0; i < 30; i++ {
		switch rng.Intn(4) {
		case 0: // insert a fresh row
			r := rng.Intn(4)
			err := d.Insert("item", rel.Tuple{rel.Int(*nextID),
				rel.String(fmt.Sprintf("r%d", r)),
				rel.String(fmt.Sprintf("g%d-%d", r, rng.Intn(5))),
				rel.Int(int64(rng.Intn(50)))})
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			*nextID++
		case 1: // delete (possibly already gone — fine, db.Delete tolerates)
			if _, err := d.Delete("item", []rel.Value{rel.Int(int64(rng.Intn(rows)))}); err != nil {
				t.Fatalf("delete: %v", err)
			}
		default: // non-conditional value update
			_, err := d.Update("item", []rel.Value{rel.Int(int64(rng.Intn(rows)))},
				[]string{"val"}, []rel.Value{rel.Int(int64(rng.Intn(50)))})
			if err != nil {
				t.Fatalf("update: %v", err)
			}
		}
	}
}

// sortedRowKeys renders a table's post-state rows as sorted tuple keys,
// ignoring attribute names — the cascade and flattened views name their
// region column differently ("v1.region" vs "item.region") but must hold
// byte-identical row values.
func sortedRowKeys(t testing.TB, d *db.Database, name string) []string {
	t.Helper()
	tab, err := d.Table(name)
	if err != nil {
		t.Fatalf("table %q: %v", name, err)
	}
	r := tab.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)
	keys := make([]string, 0, r.Len())
	for _, tu := range r.Tuples {
		keys = append(keys, rel.TupleKey(tu))
	}
	sort.Strings(keys)
	return keys
}

func TestCascadeRegistration(t *testing.T) {
	d := cascadeDB(t, storage.NewMem(), 100, 1)
	sys := ivm.NewSystem(d)
	v1 := register(t, sys, "v1", rollupL1Plan(d), ivm.ModeID)
	if len(v1.Sources) != 0 || v1.Level != 0 {
		t.Fatalf("v1 sources=%v level=%d, want none/0", v1.Sources, v1.Level)
	}
	v2 := register(t, sys, "v2", rollupL2Plan(d, "v1"), ivm.ModeID)
	if len(v2.Sources) != 1 || v2.Sources[0] != "v1" || v2.Level != 1 {
		t.Fatalf("v2 sources=%v level=%d, want [v1]/1", v2.Sources, v2.Level)
	}
	// A third level on top of v2.
	v3 := register(t, sys, "v3", rollupL2Plan(d, "v2"), ivm.ModeID)
	_ = v3.Plan // v2's columns are v2.region/total; rollupL2Plan regroups them
	if v3.Level != 2 || len(v3.Sources) != 1 || v3.Sources[0] != "v2" {
		t.Fatalf("v3 sources=%v level=%d, want [v2]/2", v3.Sources, v3.Level)
	}
	// The parents carry derived logging; the base table ordinary logging.
	if !d.DerivedLoggingEnabled("v1") || !d.DerivedLoggingEnabled("v2") {
		t.Fatal("cascade sources should have derived logging enabled")
	}
	if d.DerivedLoggingEnabled("item") || !d.LoggingEnabled("item") {
		t.Fatal("base table should have trigger logging, not derived logging")
	}
}

func TestCyclicViewRejected(t *testing.T) {
	d := cascadeDB(t, storage.NewMem(), 50, 2)
	sys := ivm.NewSystem(d)
	register(t, sys, "v1", rollupL1Plan(d), ivm.ModeID)

	// The one reachable cyclic shape: a plan scanning the name being
	// registered. (True transitive cycles are unbuildable through the API —
	// a source must already be registered — but the check guards them too.)
	sch := rel.NewSchema([]string{"region", "total"}, []string{"region"})
	self := algebra.NewGroupBy(algebra.NewScan("loop", "", sch),
		[]string{"loop.region"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("loop.total"), As: "total"}})
	_, err := sys.RegisterView("loop", self, ivm.ModeID)
	if err == nil {
		t.Fatal("self-referential registration succeeded")
	}
	var verr *ivm.VerifyError
	if !errors.As(err, &verr) || verr.Code != ivm.VerifyCyclicView {
		t.Fatalf("got %v, want VerifyError{%s}", err, ivm.VerifyCyclicView)
	}
	if _, ok := sys.View("loop"); ok {
		t.Fatal("rejected view leaked into the registry")
	}
	if _, err := d.Table("loop"); err == nil {
		t.Fatal("rejected view left a materialized table behind")
	}
}

// TestCascadeMaintenance drives a 3-level cascade through multiple rounds
// and checks every level against its recompute oracle each round, plus the
// derived-log lifecycle.
func TestCascadeMaintenance(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func() storage.Engine
	}{{"mem", storage.NewMem}, {"sharded4", func() storage.Engine { return storagetest.Sharded(4) }}} {
		for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
			t.Run(fmt.Sprintf("%s/%s", eng.name, mode), func(t *testing.T) {
				const rows = 150
				d := cascadeDB(t, eng.mk(), rows, 3)
				sys := ivm.NewSystem(d)
				sys.SelfCheck = true
				register(t, sys, "v1", rollupL1Plan(d), mode)
				register(t, sys, "v2", rollupL2Plan(d, "v1"), mode)
				register(t, sys, "v3", rollupL2Plan(d, "v2"), mode)

				rng := rand.New(rand.NewSource(7))
				nextID := int64(rows)
				for round := 0; round < 5; round++ {
					mutateItems(t, d, rng, rows, &nextID)
					if _, err := sys.MaintainAll(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					for _, v := range []string{"v1", "v2", "v3"} {
						if err := sys.CheckConsistent(v); err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						if n := len(d.DerivedLog(v)); n != 0 {
							t.Fatalf("round %d: derived log of %s not cleared (%d entries)", round, v, n)
						}
					}
					if n := len(d.Log()); n != 0 {
						t.Fatalf("round %d: modification log not cleared (%d entries)", round, n)
					}
				}
			})
		}
	}
}

// TestCascadeMatchesFlattened is the differential acceptance test: after
// every round, the 2-level cascade's top view holds exactly the rows of
// the equivalent flattened view registered directly over the base table —
// on both engines. (One view per level: the view fan-out has nothing to
// overlap here; TestCascadeParallelMatchesSequential covers it.)
func TestCascadeMatchesFlattened(t *testing.T) {
	engs := []struct {
		name string
		mk   func() storage.Engine
	}{{"mem", storage.NewMem}, {"sharded4", func() storage.Engine { return storagetest.Sharded(4) }}}

	for _, eng := range engs {
		t.Run(eng.name, func(t *testing.T) {
			const rows = 150
			// Twin databases: one carries the cascade, one the flattened
			// view; both see the same mutation stream.
			casc := cascadeDB(t, eng.mk(), rows, 11)
			flat := cascadeDB(t, eng.mk(), rows, 11)
			cascSys := ivm.NewSystem(casc)
			flatSys := ivm.NewSystem(flat)
			register(t, cascSys, "v1", rollupL1Plan(casc), ivm.ModeID)
			register(t, cascSys, "v2", rollupL2Plan(casc, "v1"), ivm.ModeID)
			register(t, flatSys, "vflat", flatRollupPlan(flat), ivm.ModeID)

			cascRng := rand.New(rand.NewSource(23))
			flatRng := rand.New(rand.NewSource(23))
			cascID, flatID := int64(rows), int64(rows)
			for round := 0; round < 5; round++ {
				mutateItems(t, casc, cascRng, rows, &cascID)
				mutateItems(t, flat, flatRng, rows, &flatID)
				if _, err := cascSys.MaintainAll(); err != nil {
					t.Fatalf("round %d cascade: %v", round, err)
				}
				if _, err := flatSys.MaintainAll(); err != nil {
					t.Fatalf("round %d flat: %v", round, err)
				}
				got := sortedRowKeys(t, casc, "v2")
				want := sortedRowKeys(t, flat, "vflat")
				if len(got) != len(want) {
					t.Fatalf("round %d: cascade %d rows vs flattened %d", round, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("round %d row %d: cascade %q vs flattened %q", round, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCascadeParallelMatchesSequential pins the leveled scheduler to the
// sequential semantics: same reports (per-phase access counts included)
// and same final state, with an extra independent level-0 view in the mix
// so one level genuinely fans out.
func TestCascadeParallelMatchesSequential(t *testing.T) {
	const rows = 150
	seqDB := cascadeDB(t, storage.NewMem(), rows, 31)
	parDB := cascadeDB(t, storage.NewMem(), rows, 31)
	seqSys := ivm.NewSystem(seqDB)
	parSys := ivm.NewSystem(parDB)
	seqSys.Workers, parSys.Workers = 1, 4

	registerBoth := func(name string, mk func(d *db.Database) algebra.Node) {
		register(t, seqSys, name, mk(seqDB), ivm.ModeID)
		register(t, parSys, name, mk(parDB), ivm.ModeID)
	}
	registerBoth("v1", rollupL1Plan)
	registerBoth("side", flatRollupPlan) // independent level-0 sibling
	registerBoth("v2", func(d *db.Database) algebra.Node { return rollupL2Plan(d, "v1") })

	seqRng := rand.New(rand.NewSource(41))
	parRng := rand.New(rand.NewSource(41))
	seqID, parID := int64(rows), int64(rows)
	for round := 0; round < 4; round++ {
		mutateItems(t, seqDB, seqRng, rows, &seqID)
		mutateItems(t, parDB, parRng, rows, &parID)
		seqReports, err := seqSys.MaintainAll()
		if err != nil {
			t.Fatalf("round %d seq: %v", round, err)
		}
		parReports, err := parSys.MaintainAll()
		if err != nil {
			t.Fatalf("round %d par: %v", round, err)
		}
		ctx := fmt.Sprintf("round %d", round)
		assertReportsMatch(t, ctx, seqReports, parReports)
		assertTablesMatch(t, ctx, seqDB, parDB, []string{"v1", "side", "v2"})
		if seqDB.Counter().Total() != parDB.Counter().Total() {
			t.Fatalf("%s: cumulative accesses diverged: seq %d par %d",
				ctx, seqDB.Counter().Total(), parDB.Counter().Total())
		}
	}
}

// TestCascadeAppliedFeedMatchesReport checks the contract Subscribe and
// the derived log both ride on: PhaseCosts.Applied is exactly the set of
// view-applied instances, and replaying it onto a copy of the view's
// pre-round state reproduces the post-round state.
func TestCascadeAppliedFeedMatchesReport(t *testing.T) {
	const rows = 120
	d := cascadeDB(t, storage.NewMem(), rows, 51)
	sys := ivm.NewSystem(d)
	register(t, sys, "v1", rollupL1Plan(d), ivm.ModeID)
	register(t, sys, "v2", rollupL2Plan(d, "v1"), ivm.ModeID)

	// Shadow copy of v2 maintained purely by replaying Applied.
	v2tab, _ := d.Table("v2")
	shadow := db.New().MustCreateTable("shadow", v2tab.Schema())
	for _, row := range v2tab.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost).Tuples {
		if err := shadow.Insert(row); err != nil {
			t.Fatalf("seeding shadow: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(61))
	nextID := int64(rows)
	for round := 0; round < 4; round++ {
		mutateItems(t, d, rng, rows, &nextID)
		reports, err := sys.MaintainAll()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var v2rep *ivm.Report
		for _, r := range reports {
			if r.View == "v2" {
				v2rep = r
			}
		}
		if v2rep == nil {
			t.Fatalf("round %d: no report for v2", round)
		}
		for _, inst := range v2rep.Phases.Applied {
			if inst.Schema.Rel != "v2" {
				t.Fatalf("round %d: applied instance targets %q, want v2", round, inst.Schema.Rel)
			}
			if _, err := inst.Apply(shadow); err != nil {
				t.Fatalf("round %d: replay: %v", round, err)
			}
		}
		got := shadow.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)
		want := v2tab.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)
		if got.Len() != want.Len() || !got.EqualSet(want) {
			t.Fatalf("round %d: replayed state diverged:\n got %v\nwant %v",
				round, got.Sorted(), want.Sorted())
		}
	}
}
