package storage

// Engine-conformance suite: every Table contract below runs against every
// backend. A new engine earns its place by passing this file (plus the
// end-to-end differential test in internal/harness) — see DESIGN.md §9.

import (
	"fmt"
	"math/rand"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/rel/epochtest"
)

// engines returns one instance of every backend, including the degenerate
// single-shard and a shard count larger than typical row counts.
func engines() map[string]Engine {
	return map[string]Engine{
		"mem":       NewMem(),
		"sharded-1": NewSharded(1),
		"sharded-3": NewSharded(3),
		"sharded-8": NewSharded(8),
	}
}

// forEachEngine runs f once per backend.
func forEachEngine(t *testing.T, f func(t *testing.T, e Engine)) {
	t.Helper()
	eng := engines()
	for _, name := range []string{"mem", "sharded-1", "sharded-3", "sharded-8"} {
		t.Run(name, func(t *testing.T) { f(t, eng[name]) })
	}
}

func mkParts(t *testing.T, e Engine) Table {
	t.Helper()
	tab, err := e.Create("parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rel.Tuple{
		{rel.String("P1"), rel.Int(10)},
		{rel.String("P2"), rel.Int(20)},
		{rel.String("P3"), rel.Int(20)},
	} {
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestConformanceCreateRequiresKey(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		if _, err := e.Create("x", rel.Schema{Attrs: []string{"a"}}); err == nil {
			t.Fatal("expected error for keyless table")
		}
	})
}

func TestConformanceInsertGetDelete(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		tab := mkParts(t, e)
		if tab.Name() != "parts" || len(tab.Schema().Attrs) != 2 {
			t.Fatalf("name/schema: %s %v", tab.Name(), tab.Schema())
		}
		if tab.Len() != 3 {
			t.Fatalf("len = %d", tab.Len())
		}
		row, ok := tab.Get(rel.StatePost, []rel.Value{rel.String("P2")})
		if !ok || !row[1].Equal(rel.Int(20)) {
			t.Fatalf("Get(P2) = %v, %v", row, ok)
		}
		if _, ok := tab.Get(rel.StatePost, []rel.Value{rel.String("P9")}); ok {
			t.Fatal("Get(P9) should miss")
		}
		if err := tab.Insert(rel.Tuple{rel.String("P1"), rel.Int(99)}); err == nil {
			t.Fatal("duplicate key insert must fail")
		}
		if err := tab.Insert(rel.Tuple{rel.String("P4")}); err == nil {
			t.Fatal("wrong-width insert must fail")
		}
		if !tab.DeleteKey([]rel.Value{rel.String("P2")}) {
			t.Fatal("delete P2 failed")
		}
		if tab.DeleteKey([]rel.Value{rel.String("P2")}) {
			t.Fatal("double delete should report false")
		}
		if tab.Len() != 2 {
			t.Fatalf("len after delete = %d", tab.Len())
		}
	})
}

func TestConformanceSecondaryLookup(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		tab := mkParts(t, e)
		rows, err := tab.Lookup(rel.StatePost, []string{"price"}, []rel.Value{rel.Int(20)})
		if err != nil || len(rows) != 2 {
			t.Fatalf("Lookup price=20: %d rows, err %v", len(rows), err)
		}
		if _, err := tab.Lookup(rel.StatePost, []string{"nope"}, []rel.Value{rel.Int(1)}); err == nil {
			t.Fatal("lookup on unknown attr must fail")
		}
		pl := rel.PrepareLookup([]string{"price"})
		out, err := tab.LookupInto(rel.StatePost, pl, []rel.Value{rel.Int(20)}, nil)
		if err != nil || len(out) != 2 {
			t.Fatalf("LookupInto price=20: %d rows, err %v", len(out), err)
		}
		p, n, err := tab.IndexCard(rel.StatePost, []string{"price"}, []rel.Value{rel.Int(20)})
		if err != nil || p != 2 || n != 3 {
			t.Fatalf("IndexCard = (%d, %d), err %v", p, n, err)
		}
	})
}

func TestConformanceDiffApplyOps(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		tab := mkParts(t, e)
		// InsertIfAbsent: identical row is a no-op, conflict errors.
		ins, err := epochtest.InsertRowIfAbsent(tab, rel.Tuple{rel.String("P1"), rel.Int(10)})
		if err != nil || ins {
			t.Fatalf("identical InsertIfAbsent: ins=%v err=%v", ins, err)
		}
		if _, err := epochtest.InsertRowIfAbsent(tab, rel.Tuple{rel.String("P1"), rel.Int(11)}); err == nil {
			t.Fatal("conflicting InsertIfAbsent must fail")
		}
		ins, err = epochtest.InsertRowIfAbsent(tab, rel.Tuple{rel.String("P4"), rel.Int(40)})
		if err != nil || !ins {
			t.Fatalf("fresh InsertIfAbsent: ins=%v err=%v", ins, err)
		}
		// UpdateWhere via secondary attr; key attrs immutable.
		n, err := epochtest.UpdateRowsWhere(tab, []string{"price"}, []rel.Value{rel.Int(20)}, []string{"price"}, []rel.Value{rel.Int(21)}, nil)
		if err != nil || n != 2 {
			t.Fatalf("UpdateWhere: n=%d err=%v", n, err)
		}
		if _, _, err := tab.UpdateKey([]rel.Value{rel.String("P1")}, []string{"pid"}, []rel.Value{rel.String("PX")}); err == nil {
			t.Fatal("updating a key attribute must fail")
		}
		pre, post, err := tab.UpdateKey([]rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(12)})
		if err != nil || !pre.Equal(rel.Tuple{rel.String("P1"), rel.Int(10)}) || !post.Equal(rel.Tuple{rel.String("P1"), rel.Int(12)}) {
			t.Fatalf("UpdateKey: pre=%v post=%v err=%v", pre, post, err)
		}
		if pre, post, err := tab.UpdateKey([]rel.Value{rel.String("P9")}, []string{"price"}, []rel.Value{rel.Int(12)}); pre != nil || post != nil || err != nil {
			t.Fatalf("UpdateKey of an absent key: pre=%v post=%v err=%v", pre, post, err)
		}
		// DeleteWhere by the updated secondary value.
		n, err = epochtest.DeleteRowsWhere(tab, []string{"price"}, []rel.Value{rel.Int(21)}, nil)
		if err != nil || n != 2 {
			t.Fatalf("DeleteWhere: n=%d err=%v", n, err)
		}
		if tab.Len() != 2 {
			t.Fatalf("len = %d", tab.Len())
		}
	})
}

func TestConformanceEpoch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		tab := mkParts(t, e)
		tab.BeginEpoch()
		if !tab.InEpoch() {
			t.Fatal("InEpoch after BeginEpoch")
		}
		if err := tab.Insert(rel.Tuple{rel.String("P4"), rel.Int(40)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.UpdateKey([]rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)}); err != nil {
			t.Fatal(err)
		}
		if !tab.DeleteKey([]rel.Value{rel.String("P3")}) {
			t.Fatal("delete P3")
		}
		// Pre-state is frozen; post-state sees the mutations.
		if pre := len(tab.Rows(rel.StatePre)); pre != 3 || tab.Len() != 3 {
			t.Fatalf("lens = pre %d post %d", pre, tab.Len())
		}
		pre, ok := tab.Get(rel.StatePre, []rel.Value{rel.String("P1")})
		if !ok || !pre[1].Equal(rel.Int(10)) {
			t.Fatalf("pre P1 = %v", pre)
		}
		if _, ok := tab.Get(rel.StatePre, []rel.Value{rel.String("P4")}); ok {
			t.Fatal("P4 must not exist in pre-state")
		}
		if _, ok := tab.Get(rel.StatePost, []rel.Value{rel.String("P3")}); ok {
			t.Fatal("P3 must be gone from post-state")
		}
		preRows, err := tab.Lookup(rel.StatePre, []string{"price"}, []rel.Value{rel.Int(20)})
		if err != nil || len(preRows) != 2 {
			t.Fatalf("pre lookup: %d rows, err %v", len(preRows), err)
		}
		tab.EndEpoch()
		if tab.InEpoch() || len(tab.Rows(rel.StatePre)) != 3 {
			t.Fatal("EndEpoch must drop the snapshot")
		}
		if _, ok := tab.Get(rel.StatePost, []rel.Value{rel.String("P4")}); !ok {
			t.Fatal("P4 must survive EndEpoch")
		}
	})
}

// TestConformanceRollbackEpoch is the abort path of a failed maintenance
// round: after inserts, updates (of an indexed column), key and predicate
// deletes inside an epoch, RollbackEpoch leaves the post-state equal to the
// pre-state — contents, key gets and secondary lookups, including an index
// first built inside the epoch — keeps the epoch open and the pre-state (and
// a scan of it taken before) untouched, charges nothing through a Handle,
// and a later write and EndEpoch behave as in any epoch.
func TestConformanceRollbackEpoch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		h, cost := NewHandle(mkParts(t, e)), new(rel.CostCounter)
		h.SetCounter(cost)
		before := h.Relation(rel.StatePost).Sorted()
		h.BeginEpoch()
		if err := h.Insert(rel.Tuple{rel.String("P4"), rel.Int(40)}); err != nil {
			t.Fatal(err)
		}
		if _, err := epochtest.UpdateRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(20)}, []string{"price"}, []rel.Value{rel.Int(40)}, nil); err != nil {
			t.Fatal(err)
		}
		if !h.DeleteKey([]rel.Value{rel.String("P1")}) {
			t.Fatal("delete P1")
		}
		if _, err := epochtest.DeleteRowsWhere(h, []string{"price"}, []rel.Value{rel.Int(40)}, nil); err != nil {
			t.Fatal(err)
		}
		if err := h.Insert(rel.Tuple{rel.String("P2"), rel.Int(99)}); err != nil {
			t.Fatal(err)
		}
		held := h.Backend().Scan(rel.StatePre)
		heldWant := append([]rel.Tuple(nil), held...)
		charged := *cost
		h.RollbackEpoch()
		if *cost != charged {
			t.Fatalf("RollbackEpoch charged %v", cost.Sub(charged))
		}
		if !h.InEpoch() {
			t.Fatal("RollbackEpoch closed the epoch")
		}
		for _, s := range []rel.State{rel.StatePost, rel.StatePre} {
			if got := h.Relation(s).Sorted(); !got.EqualSet(before) || h.Len() != before.Len() {
				t.Fatalf("%s after rollback = %v, want %v", s, got, before)
			}
			for _, r := range before.Tuples {
				if got, ok := h.Backend().Get(s, r[:1]); !ok || !got.Equal(r) {
					t.Fatalf("%s Get(%v) after rollback = %v, %v", s, r[0], got, ok)
				}
			}
			for price, want := range map[int64]int{10: 1, 20: 2, 40: 0, 99: 0} {
				if rows, err := h.Backend().Lookup(s, []string{"price"}, []rel.Value{rel.Int(price)}); err != nil || len(rows) != want {
					t.Fatalf("%s Lookup(price=%d) after rollback = %v, %v; want %d rows", s, price, rows, err, want)
				}
			}
		}
		for i, r := range held {
			if !r.Equal(heldWant[i]) {
				t.Fatalf("RollbackEpoch modified a retained StatePre scan: row %d is %v, was %v", i, r, heldWant[i])
			}
		}
		if _, err := h.UpdateKey([]rel.Value{rel.String("P3")}, []string{"price"}, []rel.Value{rel.Int(30)}); err != nil {
			t.Fatal(err)
		}
		if pre, ok := h.Backend().Get(rel.StatePre, []rel.Value{rel.String("P3")}); !ok || !pre[1].Equal(rel.Int(20)) {
			t.Fatalf("pre P3 after a write that followed the rollback = %v, %v", pre, ok)
		}
		h.EndEpoch()
		if rows, err := h.Backend().Lookup(rel.StatePost, []string{"price"}, []rel.Value{rel.Int(30)}); err != nil || len(rows) != 1 || h.InEpoch() {
			t.Fatalf("after EndEpoch: Lookup(price=30) = %v, %v; InEpoch %v", rows, err, h.InEpoch())
		}
		h.RollbackEpoch() // outside an epoch: nothing to undo
		if h.Len() != 3 {
			t.Fatalf("RollbackEpoch outside an epoch changed the table: %d rows", h.Len())
		}
	})
}

// TestConformanceEpochModel runs the epoch model programs — the overlay's
// hand-written corners and random write × Begin/Advance/End/RollbackEpoch
// sequences — on every backend against epochtest's full-copy oracle,
// comparing every read in both states after every operation. It also pins
// the contract that a StatePre scan result is never modified by later
// writes.
func TestConformanceEpochModel(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		run := func(t *testing.T, prog []byte) {
			t.Helper()
			tab, err := e.Create("t", epochtest.Schema())
			if err != nil {
				t.Fatal(err)
			}
			epochtest.Run(t, tab, prog)
		}
		for name, prog := range epochtest.Seeds() {
			t.Run(name, func(t *testing.T) { run(t, prog) })
		}
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 100; i++ {
			prog := epochtest.RandomProg(rng, 20+rng.Intn(60))
			if run(t, prog); t.Failed() {
				t.Fatalf("program %d failed: %v", i, prog)
			}
		}
	})
}

// TestConformanceInstanceApply is the instance-level APPLY contract on every
// backend, through counting handles (epochtest.RunInstances): a multi-tuple
// instance — of every kind, spanning lock chunks, with a conflict in the
// middle — leaves the post-state, the pre-state of an open or advanced epoch,
// the image-callback sequence and every cost counter exactly as its tuples
// applied one call at a time do.
func TestConformanceInstanceApply(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		epochtest.RunInstances(t, rand.New(rand.NewSource(53)), 150, func() (epochtest.InstanceTable, *rel.CostCounter) {
			tab, err := e.Create("t", epochtest.Schema())
			if err != nil {
				t.Fatal(err)
			}
			h, cost := NewHandle(tab), new(rel.CostCounter)
			h.SetCounter(cost)
			return h, cost
		})
	})
}

// TestConformanceRandomizedDifferential drives an identical randomized
// mixed workload through every backend and asserts that contents (as
// sets), scan/relation materializations, lookups and — through counting
// handles — access charges all agree with the mem engine.
func TestConformanceRandomizedDifferential(t *testing.T) {
	type run struct {
		h *Handle
		c *rel.CostCounter
	}
	eng := engines()
	order := []string{"mem", "sharded-1", "sharded-3", "sharded-8"}
	runs := make([]run, 0, len(order))
	schema := rel.NewSchema([]string{"k", "grp", "v"}, []string{"k"})
	for _, name := range order {
		tab, err := eng[name].Create("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		c := new(rel.CostCounter)
		h := NewHandle(tab)
		h.SetCounter(c)
		runs = append(runs, run{h: h, c: c})
	}

	rng := rand.New(rand.NewSource(42))
	key := func() []rel.Value { return []rel.Value{rel.Int(int64(rng.Intn(200)))} }
	for op := 0; op < 2000; op++ {
		var do func(r run) (any, error)
		switch k := rng.Intn(10); {
		case k < 3:
			row := rel.Tuple{rel.Int(int64(rng.Intn(200))), rel.Int(int64(rng.Intn(5))), rel.Int(int64(rng.Intn(50)))}
			do = func(r run) (any, error) {
				ins, err := epochtest.InsertRowIfAbsent(r.h, row)
				if err != nil {
					return "conflict", nil
				}
				return ins, nil
			}
		case k < 5:
			kv := key()
			do = func(r run) (any, error) { return r.h.DeleteKey(kv), nil }
		case k < 6:
			grp := []rel.Value{rel.Int(int64(rng.Intn(5)))}
			do = func(r run) (any, error) { return epochtest.DeleteRowsWhere(r.h, []string{"grp"}, grp, nil) }
		case k < 8:
			kv := key()
			v := []rel.Value{rel.Int(int64(rng.Intn(50)))}
			do = func(r run) (any, error) {
				ok, err := r.h.UpdateKey(kv, []string{"v"}, v)
				return ok, err
			}
		case k < 9:
			kv := key()
			do = func(r run) (any, error) {
				row, ok := r.h.Get(rel.StatePost, kv)
				if !ok {
					return "miss", nil
				}
				return row.String(), nil
			}
		default:
			grp := []rel.Value{rel.Int(int64(rng.Intn(5)))}
			do = func(r run) (any, error) {
				rows, err := r.h.Lookup(rel.StatePost, []string{"grp"}, grp)
				return len(rows), err
			}
		}
		ref, refErr := do(runs[0])
		for i := 1; i < len(runs); i++ {
			got, gotErr := do(runs[i])
			if fmt.Sprint(got) != fmt.Sprint(ref) || (gotErr == nil) != (refErr == nil) {
				t.Fatalf("op %d: %s disagrees with mem: got %v/%v want %v/%v",
					op, order[i], got, gotErr, ref, refErr)
			}
		}
	}
	refRel := runs[0].h.Relation(rel.StatePost).Sorted()
	for i := 1; i < len(runs); i++ {
		if got := runs[i].h.Relation(rel.StatePost).Sorted(); !refRel.EqualSet(got) {
			t.Fatalf("%s final contents differ from mem:\n%v\nvs\n%v", order[i], got, refRel)
		}
		if runs[i].h.Len() != runs[0].h.Len() {
			t.Fatalf("%s len %d != mem len %d", order[i], runs[i].h.Len(), runs[0].h.Len())
		}
		if *runs[i].c != *runs[0].c {
			t.Fatalf("%s counter %v != mem counter %v", order[i], runs[i].c, runs[0].c)
		}
	}
	if runs[0].c.Total() == 0 {
		t.Fatal("workload charged nothing — counting is broken")
	}
}

// TestConformanceKeyStats pins the key-frequency statistic the planner's
// index-vs-scan decision reads: IndexCard's match count (keyFreq) is the
// exact global bucket size, for pre and post state under an epoch, and
// every backend agrees with the mem engine — a partitioned backend sums a
// key's per-shard buckets.
func TestConformanceKeyStats(t *testing.T) {
	keyFreq := func(h *Handle, s rel.State, attrs []string, vals []rel.Value) (int, error) {
		p, _, err := h.IndexCard(s, attrs, vals)
		return p, err
	}
	type run struct {
		name string
		h    *Handle
		c    *rel.CostCounter
	}
	eng := engines()
	order := []string{"mem", "sharded-1", "sharded-3", "sharded-8"}
	schema := rel.NewSchema([]string{"k", "grp", "v"}, []string{"k"})
	runs := make([]run, 0, len(order))
	for _, name := range order {
		tab, err := eng[name].Create("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		c := new(rel.CostCounter)
		h := NewHandle(tab)
		h.SetCounter(c)
		runs = append(runs, run{name: name, h: h, c: c})
	}

	// Group g gets g+1 rows (g = 0..7), keys spread so that sharding
	// scatters each group across shards.
	rows := 0
	for g := 0; g < 8; g++ {
		for i := 0; i <= g; i++ {
			row := rel.Tuple{rel.Int(int64(rows)), rel.Int(int64(g)), rel.Int(int64(rows % 3))}
			rows++
			for _, r := range runs {
				if err := r.h.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	statsEqual := func(t *testing.T, stage string) {
		t.Helper()
		for _, st := range []rel.State{rel.StatePre, rel.StatePost} {
			for g := 0; g < 9; g++ {
				ref, refErr := keyFreq(runs[0].h, st, []string{"grp"}, []rel.Value{rel.Int(int64(g))})
				for _, r := range runs[1:] {
					got, err := keyFreq(r.h, st, []string{"grp"}, []rel.Value{rel.Int(int64(g))})
					if got != ref || (err == nil) != (refErr == nil) {
						t.Fatalf("%s: %s keyFreq(%v, grp=%d) = %d/%v, mem %d/%v",
							stage, r.name, st, g, got, err, ref, refErr)
					}
				}
			}
		}
	}

	for _, r := range runs {
		*r.c = rel.CostCounter{}
	}
	statsEqual(t, "loaded")
	// Freq 8 exists only for group 7; freq 9 nowhere.
	if n, err := keyFreq(runs[0].h, rel.StatePost, []string{"grp"}, []rel.Value{rel.Int(7)}); err != nil || n != 8 {
		t.Fatalf("keyFreq(grp=7) = %d/%v, want 8", n, err)
	}
	// Stats are uncharged — the catalog reads above must not move counters.
	for _, r := range runs {
		if *r.c != (rel.CostCounter{}) {
			t.Fatalf("%s: stats reads charged %v", r.name, *r.c)
		}
	}

	// Epoch coherence: mutate inside an epoch; pre-state stats stay frozen
	// while post-state stats track the mutations, on every backend.
	for _, r := range runs {
		r.h.BeginEpoch()
		// Group 0 gains two rows (1 -> 3); group 7 loses one (8 -> 7).
		if err := r.h.Insert(rel.Tuple{rel.Int(100), rel.Int(0), rel.Int(0)}); err != nil {
			t.Fatal(err)
		}
		if err := r.h.Insert(rel.Tuple{rel.Int(101), rel.Int(0), rel.Int(0)}); err != nil {
			t.Fatal(err)
		}
		if n, err := epochtest.DeleteRowsWhere(r.h, []string{"k"}, []rel.Value{rel.Int(35)}, nil); err != nil || n != 1 {
			t.Fatalf("%s: epoch delete n=%d err=%v", r.name, n, err)
		}
		// Group 3's rows move to group 8 (4 -> 0 and 0 -> 4).
		if n, err := epochtest.UpdateRowsWhere(r.h, []string{"grp"}, []rel.Value{rel.Int(3)},
			[]string{"grp"}, []rel.Value{rel.Int(8)}, nil); err != nil || n != 4 {
			t.Fatalf("%s: epoch update n=%d err=%v", r.name, n, err)
		}
	}
	statsEqual(t, "in-epoch")
	if n, err := keyFreq(runs[0].h, rel.StatePre, []string{"grp"}, []rel.Value{rel.Int(0)}); err != nil || n != 1 {
		t.Fatalf("pre keyFreq(grp=0) = %d/%v, want frozen 1", n, err)
	}
	if n, err := keyFreq(runs[0].h, rel.StatePost, []string{"grp"}, []rel.Value{rel.Int(0)}); err != nil || n != 3 {
		t.Fatalf("post keyFreq(grp=0) = %d/%v, want 3", n, err)
	}
	if n, err := keyFreq(runs[0].h, rel.StatePre, []string{"grp"}, []rel.Value{rel.Int(3)}); err != nil || n != 4 {
		t.Fatalf("pre keyFreq(grp=3) = %d/%v, want frozen 4", n, err)
	}
	if n, err := keyFreq(runs[0].h, rel.StatePost, []string{"grp"}, []rel.Value{rel.Int(8)}); err != nil || n != 4 {
		t.Fatalf("post keyFreq(grp=8) = %d/%v, want 4", n, err)
	}
	for _, r := range runs {
		r.h.EndEpoch()
	}
	statsEqual(t, "post-epoch")

	// Unknown attribute errors on every backend.
	for _, r := range runs {
		if _, err := keyFreq(r.h, rel.StatePost, []string{"nope"}, []rel.Value{rel.Int(1)}); err == nil {
			t.Fatalf("%s: keyFreq on unknown attr must fail", r.name)
		}
	}
}

// TestConformanceCaptureOps pins the capture-callback contract of
// DeleteWhereFunc/UpdateWhereFunc: full pre/post images delivered from
// inside the mutation, matched counts, and nil-fn equivalence with the
// plain variants. The derived modification log (cascades) is built on it.
func TestConformanceCaptureOps(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		tab := mkParts(t, e)

		// UpdateWhereFunc: both price=20 rows move to 21; the callback sees
		// the pre image with 20 and the post image with 21, full width.
		seen := map[string][2]int64{}
		n, err := epochtest.UpdateRowsWhere(tab, []string{"price"}, []rel.Value{rel.Int(20)},
			[]string{"price"}, []rel.Value{rel.Int(21)},
			func(pre, post rel.Tuple) {
				if len(pre) != 2 || len(post) != 2 {
					t.Errorf("truncated images: pre %v post %v", pre, post)
					return
				}
				seen[pre[0].String()] = [2]int64{pre[1].AsInt(), post[1].AsInt()}
			})
		if err != nil || n != 2 {
			t.Fatalf("UpdateWhereFunc: n=%d err=%v", n, err)
		}
		if len(seen) != 2 {
			t.Fatalf("callback fired for %d rows, want 2: %v", len(seen), seen)
		}
		for pid, io := range seen {
			if io[0] != 20 || io[1] != 21 {
				t.Errorf("row %s images = %v, want [20 21]", pid, io)
			}
		}
		// Post images must be live: the table now holds them.
		rows, err := tab.Lookup(rel.StatePost, []string{"price"}, []rel.Value{rel.Int(21)})
		if err != nil || len(rows) != 2 {
			t.Fatalf("after UpdateWhereFunc: %d rows at 21, err %v", len(rows), err)
		}

		// nil fn behaves exactly like the plain variant.
		n, err = epochtest.UpdateRowsWhere(tab, []string{"price"}, []rel.Value{rel.Int(10)},
			[]string{"price"}, []rel.Value{rel.Int(11)}, nil)
		if err != nil || n != 1 {
			t.Fatalf("nil-fn UpdateWhereFunc: n=%d err=%v", n, err)
		}

		// DeleteWhereFunc: both 21-rows go; pre images are complete.
		var deleted []string
		n, err = epochtest.DeleteRowsWhere(tab, []string{"price"}, []rel.Value{rel.Int(21)},
			func(pre rel.Tuple) {
				if len(pre) != 2 || !pre[1].Equal(rel.Int(21)) {
					t.Errorf("bad delete pre image %v", pre)
				}
				deleted = append(deleted, pre[0].String())
			})
		if err != nil || n != 2 || len(deleted) != 2 {
			t.Fatalf("DeleteWhereFunc: n=%d fired=%d err=%v", n, len(deleted), err)
		}
		if tab.Len() != 1 {
			t.Fatalf("len after capture delete = %d", tab.Len())
		}
		// No matches: no calls, no error.
		n, err = epochtest.DeleteRowsWhere(tab, []string{"price"}, []rel.Value{rel.Int(999)},
			func(pre rel.Tuple) { t.Errorf("callback on zero-match delete: %v", pre) })
		if err != nil || n != 0 {
			t.Fatalf("zero-match DeleteWhereFunc: n=%d err=%v", n, err)
		}
	})
}
