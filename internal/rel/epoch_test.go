package rel

import (
	"fmt"
	"runtime"
	"testing"
)

// epochTable builds a table of n rows (k, g, v) with g = k mod 16 and warms
// the g index, so that what a test observes afterwards is the epoch
// machinery, not a cold first build.
func epochTable(tb testing.TB, n int) *Table {
	tb.Helper()
	tab := MustNewTable("t", NewSchema([]string{"k", "g", "v"}, []string{"k"}))
	for i := 0; i < n; i++ {
		tab.MustInsert(Int(int64(i)), Int(int64(i%16)), Int(0))
	}
	if _, err := tab.Lookup(StatePost, []string{"g"}, []Value{Int(0)}); err != nil {
		tb.Fatal(err)
	}
	return tab
}

// A keyed read encodes its probe key on the stack: a Get hit allocates
// nothing, in the post-state, at a clean pre-state position, and through
// the overlay's by-key index once that exists. Neither does a DeleteKey
// miss, which is all of DeleteKey that does not mutate.
func TestGetDoesNotAllocate(t *testing.T) {
	tab := epochTable(t, 100)
	key := []Value{Int(42)}
	hit := func(s State) func() {
		return func() {
			if _, ok := tab.Get(s, key); !ok {
				t.Fatal("Get(42) missed")
			}
		}
	}
	check := func(what string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", what, n)
		}
	}
	check("Get post", hit(StatePost))
	check("DeleteKey miss", func() { tab.DeleteKey([]Value{Int(-1)}) })

	tab.BeginEpoch()
	defer tab.EndEpoch()
	check("Get pre, unmutated epoch", hit(StatePre))
	if _, _, err := tab.UpdateKey([]Value{Int(7)}, []string{"v"}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	check("Get pre, clean position", hit(StatePre))
	if _, _, err := tab.UpdateKey(key, []string{"v"}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if row, ok := tab.Get(StatePre, key); !ok || row[2].AsInt() != 0 {
		t.Fatalf("pre Get(42) = %v, %v; want the pre-image", row, ok)
	}
	check("Get pre, through the overlay", hit(StatePre))
}

// Pinned rounds never rebuild a full-table index: ten rounds of writes, a
// pre-state probe in the middle of each, an AdvanceEpoch at the end — the
// build counter stays where the warm-up left it. (Overlay indexes are
// O(writes of the round) and are not counted.)
func TestPinnedRoundsNeverRebuildAnIndex(t *testing.T) {
	const n = 2000
	tab := epochTable(t, n)
	// UpdateKey goes through the index over the key attributes: build it now.
	if _, _, err := tab.UpdateKey([]Value{Int(0)}, []string{"v"}, []Value{Int(0)}); err != nil {
		t.Fatal(err)
	}
	tab.BeginEpoch()
	defer tab.EndEpoch()
	warm := atomicLoadBuilds(tab)
	next := int64(n)
	for round := 0; round < 10; round++ {
		write := func(i int) {
			k := int64((round*37 + i*11) % n)
			if _, _, err := tab.UpdateKey([]Value{Int(k)}, []string{"g"}, []Value{Int(int64(round % 16))}); err != nil {
				t.Fatal(err)
			}
			tab.DeleteKey([]Value{Int(int64((round*53 + i*7) % n))})
			tab.MustInsert(Int(next), Int(int64(i%16)), Int(1))
			next++
		}
		for i := 0; i < 20; i++ {
			write(i)
		}
		preLen := len(tab.Rows(StatePre))
		total := 0
		for g := int64(0); g < 16; g++ {
			rows, err := tab.Lookup(StatePre, []string{"g"}, []Value{Int(g)})
			if err != nil {
				t.Fatal(err)
			}
			total += len(rows)
		}
		if total != preLen {
			t.Fatalf("round %d: pre-state g buckets hold %d rows, the pre-state has %d", round, total, preLen)
		}
		for i := 20; i < 40; i++ {
			write(i)
		}
		if _, ok := tab.Get(StatePre, []Value{Int(next - 1)}); ok {
			t.Fatalf("round %d: a row inserted this round is visible in the pre-state", round)
		}
		tab.AdvanceEpoch()
	}
	if got := atomicLoadBuilds(tab); got != warm {
		t.Fatalf("index builds went from %d to %d across ten pinned rounds, want no rebuild", warm, got)
	}
}

// epochCycle is one batch round as a table sees it: the epoch opens, delta
// rows are updated, the pre-state of one of them is read back by key (which
// builds the overlay's by-key index), and the epoch closes.
func epochCycle(tb testing.TB, tab *Table, n, delta, cycle int) {
	tab.BeginEpoch()
	var k int64
	for i := 0; i < delta; i++ {
		k = int64((cycle*delta + i) * 7919 % n)
		if _, _, err := tab.UpdateKey([]Value{Int(k)}, []string{"v"}, []Value{Int(int64(cycle + 1))}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, ok := tab.Get(StatePre, []Value{Int(k)}); !ok {
		tb.Fatalf("pre Get(%d) missed", k)
	}
	tab.EndEpoch()
}

// BenchmarkEpochCycle measures an epoch's fixed cost against table size:
// with the undo overlay a cycle costs O(delta), whatever n is.
func BenchmarkEpochCycle(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		for _, delta := range []int{1, 200} {
			b.Run(fmt.Sprintf("n=%d/delta=%d", n, delta), func(b *testing.B) {
				tab := epochTable(b, n)
				epochCycle(b, tab, n, delta, 0) // sizes the bitmap and the undo list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					epochCycle(b, tab, n, delta, i+1)
				}
			})
		}
	}
}

// The bytes an epoch cycle allocates do not depend on the table's size: a
// single-write cycle on 100k rows allocates less than twice what it does
// on 1k rows (the full-copy snapshot it replaces differed by 100×).
func TestEpochCycleAllocIsSizeIndependent(t *testing.T) {
	bytesPerCycle := func(n int) float64 {
		tab := epochTable(t, n)
		epochCycle(t, tab, n, 1, 0)
		const cycles = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			epochCycle(t, tab, n, 1, i+1)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / cycles
	}
	small, large := bytesPerCycle(1_000), bytesPerCycle(100_000)
	t.Logf("bytes per cycle: n=1k %.0f, n=100k %.0f", small, large)
	if large >= 2*small {
		t.Fatalf("a single-write epoch cycle allocates %.0f B on 100k rows against %.0f B on 1k rows: it must not scale with the table", large, small)
	}
}
