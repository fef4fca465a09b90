package ivm_test

import (
	"math"
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
// point of the cache: the cached path must spend less than a tenth of the
// accesses of group recompute from the base table on the same stream
// (978 against 19 209, 5.1 %, so the bound leaves about twice the room). The
// bound also guards the dispatch: the multiset γ-COUNT, whose input is a
// base-table scan, folds its moves into its group delta, and its probes of
// that scan must go by index; the MIN/MAX γ above it recomputes only the
// groups that lose an extremum (groupExtrema), where recomputing every
// affected group cost 4 118. Hiding the scan from the planner behind a
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
	if 10*cached >= nocache {
		t.Fatalf("multiset cache saves too little: cached %d accesses, nocache %d", cached, nocache)
	}
	t.Logf("delete-heavy stream: cached %d accesses vs nocache %d (%.1f%% of recompute)",
		cached, nocache, 100*float64(cached)/float64(nocache))
}

// TestMinMaxGuardedRecompute pins the guarded MIN/MAX rule: a MIN(a) and a
// MAX(b) over one ordered-multiset cache, fed rounds that each exercise a
// case by hand, and after every round the view equals its recomputation and
// the NoCache system's view. In every round ΔX holds exactly the groups
// listed for it — those that lose an extremum (or die) and those that gain a
// value Compare cannot order against an extremum — and ΔR reads the cache
// for those groups only: one index lookup per group and one read per cache
// row left in it. Groups that lose a non-extremal value, a NULL beside a
// non-NULL extremum or a duplicate, or gain a value that beats or loses to
// an extremum outright, read nothing.
func TestMinMaxGuardedRecompute(t *testing.T) {
	i, null := rel.Int, rel.Null()
	big := int64(1) << 53
	setup := func() *db.Database {
		d := db.New()
		items := d.MustCreateTable("items", rel.NewSchema([]string{"id", "grp", "a", "b"}, []string{"id"}))
		for _, r := range []rel.Tuple{
			{i(1), i(1), i(1), i(10)}, {i(2), i(1), i(2), i(20)}, {i(3), i(1), i(3), i(30)},
			{i(4), i(2), i(4), i(10)}, {i(5), i(2), i(5), i(20)}, {i(6), i(2), i(6), i(30)},
			{i(7), i(3), i(7), i(10)}, {i(8), i(3), i(8), i(20)},
			{i(9), i(4), i(7), i(10)}, {i(10), i(4), i(8), i(20)},
			{i(11), i(5), i(1), i(1)}, {i(12), i(5), i(2), i(2)},
			{i(13), i(7), null, null}, {i(14), i(7), null, null},
			{i(15), i(8), null, null},
			{i(16), i(9), i(3), i(10)}, {i(17), i(9), null, i(5)},
			{i(18), i(10), i(1), i(1)},
			{i(19), i(11), i(1), i(big)},
			{i(20), i(12), i(5), i(5)},
			{i(21), i(13), i(2), i(2)}, {i(22), i(13), i(2), i(2)},
		} {
			items.MustInsert(r...)
		}
		return d
	}
	plan := func(d *db.Database) algebra.Node {
		items, _ := d.Table("items")
		return algebra.NewGroupBy(algebra.NewScan("items", "", items.Schema()), []string{"items.grp"},
			[]algebra.Agg{
				{Fn: algebra.AggMin, Arg: expr.C("items.a"), As: "lo"},
				{Fn: algebra.AggMax, Arg: expr.C("items.b"), As: "hi"},
			})
	}
	type mod struct {
		del int64     // a row id to delete, or 0
		ins rel.Tuple // a row to insert, or nil
	}
	rounds := []struct {
		name    string
		mods    []mod
		lost    int // groups in ΔX
		reads   int64
		updated int // groups in the view's ∆u
	}{
		// g1 loses its min; g2 a value that is neither extremum; a new
		// value beats g3's min and another g4's max; g5 dies and g6 is born;
		// g13 loses one of two equal rows, a #mult update only.
		{"extrema", []mod{{del: 1}, {del: 5}, {ins: rel.Tuple{i(23), i(3), i(0), i(15)}},
			{ins: rel.Tuple{i(24), i(4), i(9), i(100)}}, {del: 11}, {del: 12},
			{ins: rel.Tuple{i(25), i(6), i(3), i(3)}}, {del: 21}}, 2, 2 + 2, 3},
		// g7 loses one of its two all-NULL rows (a #mult update); all-NULL
		// g8 gains a non-NULL row; g9 loses a NULL beside its non-NULL min.
		{"nulls", []mod{{del: 13}, {ins: rel.Tuple{i(26), i(8), i(5), i(6)}}, {del: 17}}, 0, 0, 1},
		// The last row of g13 goes: it dies. (Not g7's last all-NULL row: a
		// cache row with a NULL in its key is never matched by the #mult
		// γ's group delta, so it is never deleted, whichever rule sits
		// above the cache.)
		{"deaths", []mod{{del: 22}}, 1, 1, 0},
		// A NaN beside g10's min, 2^53+1 beside g11's max 2^53 (equal to
		// Compare, not KeyEqual; g11 also gets a new min 0), a string beside
		// g12's int min, and a value of g3 that beats neither extremum.
		{"unordered", []mod{{ins: rel.Tuple{i(27), i(10), rel.Float(math.NaN()), i(0)}},
			{ins: rel.Tuple{i(28), i(11), i(0), i(big + 1)}},
			{ins: rel.Tuple{i(29), i(12), rel.String("x"), i(1)}},
			{ins: rel.Tuple{i(30), i(3), i(100), i(5)}}}, 3, 3 + 6, 1},
	}

	dC, dN := setup(), setup()
	sysC, sysN := ivm.NewSystem(dC), ivm.NewSystem(dN)
	v := register(t, sysC, "V", plan(dC), ivm.ModeID)
	if _, err := sysN.RegisterView("V", plan(dN), ivm.ModeID, ivm.GenOptions{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if s := v.Script.String(); !strings.Contains(s, "#mult") || !strings.Contains(s, "ΔX") {
		t.Fatalf("the guarded rule is not in play:\n%s", s)
	}
	for _, r := range rounds {
		for _, d := range []*db.Database{dC, dN} {
			for _, m := range r.mods {
				if m.del != 0 {
					if _, err := d.Delete("items", []rel.Value{i(m.del)}); err != nil {
						t.Fatal(err)
					}
				} else if err := d.Insert("items", m.ins); err != nil {
					t.Fatal(err)
				}
			}
		}
		reps, err := sysC.MaintainAll()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if _, err := sysN.MaintainAll(); err != nil {
			t.Fatalf("%s: nocache: %v", r.name, err)
		}
		if err := sysC.CheckConsistent("V"); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if vc, vn := viewState(t, dC, "V"), viewState(t, dN, "V"); !vc.EqualSet(vn) {
			t.Fatalf("%s: cached and NoCache views diverge:\n%v\n%v", r.name, vc.Sorted(), vn.Sorted())
		}
		lost, reads := -1, int64(-1)
		for _, st := range reps[0].Phases.Steps {
			switch {
			case strings.HasPrefix(st.Step, "ΔX"):
				lost = st.Rows
			case strings.HasPrefix(st.Step, "ΔR"):
				reads = st.Cost.Total()
			}
		}
		if lost != r.lost || reads != r.reads {
			t.Errorf("%s: ΔX holds %d groups and ΔR reads %d, want %d and %d:\n%s", r.name, lost, reads, r.lost, r.reads, v.Script)
		}
		updated := 0
		for _, inst := range reps[0].Phases.Applied {
			if inst.Schema.Type == ivm.DiffUpdate {
				updated += inst.Len()
			}
		}
		if updated != r.updated {
			t.Errorf("%s: ∆u updates %d groups, want %d (only the groups whose aggregates change)", r.name, updated, r.updated)
		}
	}
}
