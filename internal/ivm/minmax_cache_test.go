package ivm_test

import (
	"math/rand"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// minMaxItemsDB builds a table with large groups over few distinct values
// — the regime the ordered-multiset cache targets: recomputing a group
// from the cache touches one row per distinct value (≤ 15) instead of one
// per tuple (120).
func minMaxItemsDB(t testing.TB, e storage.Engine) *db.Database {
	t.Helper()
	d := db.NewWith(e)
	items := d.MustCreateTable("items", rel.NewSchema([]string{"id", "grp", "val"}, []string{"id"}))
	rng := rand.New(rand.NewSource(5))
	id := 0
	for g := 0; g < 40; g++ {
		for i := 0; i < 120; i++ {
			items.MustInsert(rel.Int(int64(id)), rel.Int(int64(g)), rel.Int(int64(rng.Intn(15))))
			id++
		}
	}
	d.Counter().Reset()
	return d
}

func minMaxItemsPlan(d *db.Database) algebra.Node {
	items, _ := d.Table("items")
	return algebra.NewGroupBy(algebra.NewScan("items", "", items.Schema()),
		[]string{"items.grp"},
		[]algebra.Agg{
			{Fn: algebra.AggMin, Arg: expr.C("items.val"), As: "lo"},
			{Fn: algebra.AggMax, Arg: expr.C("items.val"), As: "hi"},
		})
}

// minMaxMods drives one delete-heavy round: a burst of key deletes (the
// current group minimum or maximum goes with its duplicates often enough),
// a few value updates (which move multiset-cache keys), and a trickle of
// re-inserts so groups never die out entirely.
func minMaxMods(t *testing.T, d *db.Database, rng *rand.Rand, nextID *int) {
	t.Helper()
	for i := 0; i < 30; i++ {
		id := rng.Intn(40 * 120)
		if _, err := d.Delete("items", []rel.Value{rel.Int(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		id := rng.Intn(40 * 120)
		v := []rel.Value{rel.Int(int64(rng.Intn(15)))}
		if _, err := d.Update("items", []rel.Value{rel.Int(int64(id))}, []string{"val"}, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		row := rel.Tuple{rel.Int(int64(*nextID)), rel.Int(int64(rng.Intn(40))), rel.Int(int64(rng.Intn(15)))}
		*nextID++
		if err := d.Insert("items", row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMinMaxCachedDifferential is the differential net over the MIN/MAX
// ordered-multiset cache (the inner γ of normalizeAggs' MIN/MAX rewrite):
// the compiled path against the interpreted oracle on identical twins fed identical
// delete-heavy streams — per-step reports, database counters and view
// state must stay byte-identical, and the view must match a from-scratch
// recompute every round. A third system registered with NoCache pins the
// point of the cache: the cached path must spend less than half the
// accesses of group recompute from the base table on the same stream
// (4 118 against 19 209, so "fewer" alone would not say much). The bound
// also guards the dispatch: the multiset γ-COUNT, whose input is a
// base-table scan, folds its moves into its group delta, and its probes of
// that scan must go by index. Hiding the scan from the planner behind a
// rename π cost 61 289 on this stream when it was measured (DESIGN.md §16).
func TestMinMaxCachedDifferential(t *testing.T) {
	dC := minMaxItemsDB(t, storage.NewMem())
	dI := minMaxItemsDB(t, storage.NewMem())
	dN := minMaxItemsDB(t, storage.NewMem())
	plan := minMaxItemsPlan(dC)

	sysC := ivm.NewSystem(dC) // compiled, cached path (default)
	sysI := ivm.NewSystem(dI)
	sysI.Interpret = true // interpreted oracle
	sysN := ivm.NewSystem(dN)
	if _, err := sysC.RegisterView("V", plan, ivm.ModeID); err != nil {
		t.Fatal(err)
	}
	if _, err := sysI.RegisterView("V", plan, ivm.ModeID); err != nil {
		t.Fatal(err)
	}
	if _, err := sysN.RegisterView("V", plan, ivm.ModeID, ivm.GenOptions{NoCache: true}); err != nil {
		t.Fatal(err)
	}

	// The rewrite must actually be in play: its "#mult" multiset cache
	// appears in the script, and disabling caches removes it.
	v, _ := sysC.View("V")
	if len(v.Script.Caches) == 0 || !strings.Contains(v.Script.String(), "#mult") {
		t.Fatalf("compiled script lacks the multiset cache:\n%s", v.Script)
	}
	vn, _ := sysN.View("V")
	if strings.Contains(vn.Script.String(), "#mult") {
		t.Fatalf("NoCache script still has the multiset cache:\n%s", vn.Script)
	}

	rngC := rand.New(rand.NewSource(99))
	rngI := rand.New(rand.NewSource(99))
	rngN := rand.New(rand.NewSource(99))
	nextC, nextI, nextN := 40*120, 40*120, 40*120
	var cached, nocache int64
	for round := 0; round < 6; round++ {
		minMaxMods(t, dC, rngC, &nextC)
		minMaxMods(t, dI, rngI, &nextI)
		minMaxMods(t, dN, rngN, &nextN)

		dC.Counter().Reset()
		dI.Counter().Reset()
		dN.Counter().Reset()
		repC, err := sysC.MaintainAll()
		if err != nil {
			t.Fatalf("round %d: compiled: %v", round, err)
		}
		repI, err := sysI.MaintainAll()
		if err != nil {
			t.Fatalf("round %d: interpreted: %v", round, err)
		}
		if _, err := sysN.MaintainAll(); err != nil {
			t.Fatalf("round %d: nocache: %v", round, err)
		}
		samePhases(t, "minmax-cache", repC[0], repI[0])
		if cc, ci := *dC.Counter(), *dI.Counter(); cc != ci {
			t.Fatalf("round %d: counters differ:\n compiled    %v\n interpreted %v", round, cc, ci)
		}
		cached += dC.Counter().Total()
		nocache += dN.Counter().Total()

		vc, vi, vn := viewState(t, dC, "V"), viewState(t, dI, "V"), viewState(t, dN, "V")
		if !vc.EqualSet(vi) || !vc.EqualSet(vn) {
			t.Fatalf("round %d: view states diverge:\ncached:\n%v\ninterpreted:\n%v\nnocache:\n%v",
				round, vc.Sorted(), vi.Sorted(), vn.Sorted())
		}
		if err := sysC.CheckConsistent("V"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if 2*cached >= nocache {
		t.Fatalf("multiset cache saves too little: cached %d accesses, nocache %d", cached, nocache)
	}
	t.Logf("delete-heavy stream: cached %d accesses vs nocache %d (%.1f%% of recompute)",
		cached, nocache, 100*float64(cached)/float64(nocache))
}
