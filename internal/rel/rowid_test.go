package rel

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// churnTable builds a table (k, g, h, v) of n rows in buckets of 100 on g
// and singleton buckets on h, with three warm secondary indexes — g, h and
// (g, h) — and none over the key k.
func churnTable(tb testing.TB, n int) *Table {
	tb.Helper()
	tab := MustNewTable("t", NewSchema([]string{"k", "g", "h", "v"}, []string{"k"}))
	for i := 0; i < n; i++ {
		tab.MustInsert(Int(int64(i)), Int(int64(i/100)), Int(int64(i)), Int(0))
	}
	for _, attrs := range [][]string{{"g"}, {"h"}, {"g", "h"}} {
		if _, err := tab.Lookup(StatePost, attrs, make([]Value, len(attrs))); err != nil {
			tb.Fatal(err)
		}
	}
	return tab
}

// The write path's allocations outside an epoch, pinned exactly: an insert
// allocates the stored row and nothing else (no key is materialised for any
// index, and a recycled id reuses its link slots), an update allocates the
// new row image, and removing a row — by key or as a 100-row bucket —
// allocates nothing.
func TestWritePathAllocations(t *testing.T) {
	const n = 20_000
	tab := churnTable(t, n)
	// Warm the scratch buffers and size the free list: remove a third of
	// the buckets, then re-add their rows, each once more through DeleteKey.
	for g := 0; g < n/100; g += 3 {
		if _, err := DeleteRowsWhere(tab, []string{"g"}, []Value{Int(int64(g))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < n/100; g += 3 {
		for i := g * 100; i < g*100+100; i++ {
			tab.MustInsert(Int(int64(i)), Int(int64(g)), Int(int64(i)), Int(0))
			tab.DeleteKey([]Value{Int(int64(i))})
			tab.MustInsert(Int(int64(i)), Int(int64(g)), Int(int64(i)), Int(0))
		}
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	next := int64(0) // every call below works on a row (or bucket) of its own
	key := make([]Value, 1)
	pin := func(what string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(50, f); got != want {
			t.Errorf("%s: %v allocs per call, want %v", what, got, want)
		}
	}
	setV, one, onG := []string{"v"}, []Value{Int(1)}, []string{"g"}
	pin("UpdateKey of a non-indexed column", 1, func() {
		key[0] = Int(next)
		next++
		if _, post, err := tab.UpdateKey(key, setV, one); post == nil || err != nil {
			t.Fatalf("UpdateKey = %v, %v", post, err)
		}
	})
	pin("DeleteKey", 0, func() {
		key[0] = Int(next)
		next++
		if !tab.DeleteKey(key) {
			t.Fatal("DeleteKey missed")
		}
	})
	// An instance is one call: its diff columns are the caller's (here
	// rewritten in place, storage copies what it stores), so an n-row insert
	// instance allocates the n stored rows and the instance's key-column map,
	// and a delete instance — 3 keys, 100-row buckets — nothing at all.
	const batch = 64
	intCols := func(n, width int) *Batch {
		b := &Batch{Schema: NewSchema(make([]string, width), nil), Cols: make([]ColVec, width), N: n}
		for j := range b.Cols {
			b.Cols[j] = ColVec{Kind: VecInt, Nums: make([]uint64, n)}
		}
		return b
	}
	diffs, src := intCols(batch, 4), Cols(0, 4)
	const runs = 51 // AllocsPerRun's 50 and its warm-up
	for k := int64(1000); k < 1000+2*batch*runs; k += 2 {
		tab.DeleteKey([]Value{Int(k)}) // thin the g buckets out: the even keys go
	}
	next = 1000
	pin("an InsertIfAbsent instance into existing buckets", batch+1, func() {
		// Back into the thinned-out g buckets, and into the h and (g, h)
		// buckets of each group's last row.
		for i := 0; i < batch; i++ {
			for j, v := range [4]int64{next, next / 100, next/100*100 + 99, 0} {
				diffs.Cols[j].Nums[i] = uint64(v)
			}
			next += 2
		}
		if p, ins, err := tab.InsertIfAbsent(diffs, src, nil); p != batch || ins != batch || err != nil {
			t.Fatalf("InsertIfAbsent = %d, %d, %v", p, ins, err)
		}
	})
	group, keys, keyCol := int64(n/100-1), intCols(3, 1), Cols(0, 1)
	pin("a DeleteWhere instance of 100-row buckets", 0, func() {
		for i := range keys.Cols[0].Nums {
			keys.Cols[0].Nums[i] = uint64(group)
			group--
		}
		if p, n, err := tab.DeleteWhere(onG, keys, keyCol, nil); p != 3 || n != 300 || err != nil {
			t.Fatalf("DeleteWhere = %d, %d, %v", p, n, err)
		}
	})
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Requests over exactly the primary-key attributes are served by byKey: no
// secondary index duplicating it is ever built, whichever entry point asks.
func TestNoIndexOverThePrimaryKey(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"a", "b", "v"}, []string{"a", "b"}))
	for i := 0; i < 10; i++ {
		tab.MustInsert(Int(int64(i)), Int(int64(i%2)), Int(0))
	}
	key, attrs := []Value{Int(3), Int(1)}, []string{"a", "b"}
	tab.BeginEpoch()
	if _, post, err := tab.UpdateKey(key, []string{"v"}, []Value{Int(1)}); post == nil || err != nil {
		t.Fatalf("UpdateKey = %v, %v", post, err)
	}
	if n, err := UpdateRowsWhere(tab, attrs, key, []string{"v"}, []Value{Int(2)}, nil); n != 1 || err != nil {
		t.Fatalf("UpdateWhere = %d, %v", n, err)
	}
	for _, s := range []State{StatePost, StatePre} {
		want := int64(2 * (1 - int(s))) // post sees v=2, pre the v=0 it opened with
		if rows, err := tab.Lookup(s, attrs, key); err != nil || len(rows) != 1 || rows[0][2].AsInt() != want {
			t.Fatalf("%s Lookup = %v, %v; want v=%d", s, rows, err, want)
		}
		if p, n, err := tab.IndexCard(s, attrs, key); p != 1 || n != 10 || err != nil {
			t.Fatalf("%s IndexCard = %d, %d, %v", s, p, n, err)
		}
	}
	if n, err := DeleteRowsWhere(tab, attrs, key, nil); n != 1 || err != nil {
		t.Fatalf("DeleteWhere = %d, %v", n, err)
	}
	if _, ok := tab.Get(StatePre, key); !ok {
		t.Fatal("the pre-state lost the deleted row")
	}
	tab.EndEpoch()
	if b := atomicLoadBuilds(tab); b != 0 {
		t.Fatalf("%d index builds, want none: byKey serves the primary key", b)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A permutation of the key is a different attribute list: an ordinary index.
	if rows, err := tab.Lookup(StatePost, []string{"b", "a"}, []Value{Int(0), Int(4)}); err != nil || len(rows) != 1 {
		t.Fatalf("Lookup(b, a) = %v, %v", rows, err)
	}
}

// DeleteWhere of one n-row bucket costs O(1) per removed row, not O(n): the
// probed chain is dropped as a whole, the rows a swap-remove moves need no
// index maintenance, and unlinking a row from a chain it shares with the
// n - 1 others — here h's and (g, h)'s, where the whole bucket has one value
// — follows its own links instead of searching for it. There is no scan left
// to count, so the pin is the time per removed row at two bucket sizes 400
// apart: a search per row makes the large bucket hundreds of times dearer
// per row, the chains leave the ratio near one, and the bound sits between
// with room for a noisy machine on either side.
func TestDeleteWhereScalesWithTheBucket(t *testing.T) {
	perRow := func(n int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			tab := churnTable(t, 20_000)
			for i := 0; i < n; i++ {
				tab.MustInsert(Int(int64(-1-i)), Int(-1), Int(-1), Int(0))
			}
			start := time.Now()
			got, err := DeleteRowsWhere(tab, []string{"g"}, []Value{Int(-1)}, nil)
			best = min(best, time.Since(start))
			if got != n || err != nil {
				t.Fatalf("DeleteWhere = %d, %v; want %d", got, err, n)
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		return best / time.Duration(n)
	}
	small, large := perRow(100), perRow(40_000)
	t.Logf("per row: %v in a 100-row bucket, %v in a 40 000-row bucket", small, large)
	if large > 20*max(small, 50*time.Nanosecond) {
		t.Errorf("removing a row of a 40 000-row bucket takes %v, of a 100-row bucket %v: the work per row grows with the bucket", large, small)
	}
}

// An index entry moves exactly when the row's encoded key changes — the
// string its bucket is filed under — which is finer than Value.Same: ints
// above 2^53 that differ only below float64's precision, and NaN against
// any number, are Same but encode differently, while an int and the equal
// integral float encode alike. A missed move would strand the id in the old
// bucket for a later insert to recycle onto an unrelated row.
func TestIndexedUpdateBetweenSameButDistinctKeys(t *testing.T) {
	const big = int64(1) << 53
	nan := Float(math.NaN())
	steps := []Value{Int(big + 1), Float(float64(big)), Int(big), nan, Int(7), nan, Float(0.5), Int(big + 2), Int(big + 1)}
	for _, byKey := range []bool{true, false} {
		tab := MustNewTable("t", NewSchema([]string{"k", "g", "v"}, []string{"k"}))
		tab.MustInsert(Int(1), Int(big), Int(0))
		tab.MustInsert(Int(2), Int(big+3), Int(0))
		onG, prev := []string{"g"}, Int(big)
		lookup := func(g Value, want int) {
			t.Helper()
			if rows, err := tab.Lookup(StatePost, onG, []Value{g}); err != nil || len(rows) != want {
				t.Fatalf("Lookup(g=%v) = %v, %v; want %d rows", g, rows, err, want)
			}
		}
		lookup(prev, 1) // build the index
		for _, next := range steps {
			n, err := 1, error(nil)
			if byKey {
				_, _, err = tab.UpdateKey([]Value{Int(1)}, onG, []Value{next})
			} else {
				n, err = UpdateRowsWhere(tab, onG, []Value{prev}, onG, []Value{next}, nil)
			}
			if n != 1 || err != nil {
				t.Fatalf("update g=%v → %v: %d rows, %v; want 1", prev, next, n, err)
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("g=%v → %v: %v", prev, next, err)
			}
			prev = next
		}
		// Row 1 ended on big+1 and row 2 never left big+3: a bucket each.
		lookup(Int(big+1), 1)
		lookup(Int(big+3), 1)
		lookup(Int(big), 0)
		lookup(Int(big+2), 0)
		lookup(nan, 0)
		// Recycle row 1's id onto another row: nothing stale may point at it.
		tab.DeleteKey([]Value{Int(1)})
		tab.MustInsert(Int(3), Int(7), Int(0))
		lookup(Int(big+1), 0)
		lookup(Int(7), 1)
		if err := tab.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// InsertIfAbsent's "an identical row is already stored" is the equivalence
// its key was resolved under, not Value.Same: a row that differs from the
// stored one only below float64's precision is a key conflict, not a silent
// no-op — an insert i-diff row must never be dropped. An int and the equal
// integral float are identical.
func TestInsertIfAbsentTellsSameButDistinctRowsApart(t *testing.T) {
	const big = int64(1) << 53
	tab := MustNewTable("t", NewSchema([]string{"k", "v"}, []string{"k"}))
	tab.MustInsert(Int(1), Int(big))
	if ins, err := InsertRowIfAbsent(tab, Tuple{Int(1), Int(big + 1)}); ins || err == nil {
		t.Errorf("InsertIfAbsent((1, 2^53+1)) over (1, 2^53) = %v, %v; want a key conflict", ins, err)
	}
	if ins, err := InsertRowIfAbsent(tab, Tuple{Int(1), Float(math.NaN())}); ins || err == nil {
		t.Errorf("InsertIfAbsent((1, NaN)) over (1, 2^53) = %v, %v; want a key conflict", ins, err)
	}
	if ins, err := InsertRowIfAbsent(tab, Tuple{Float(1), Float(float64(big))}); ins || err != nil {
		t.Errorf("InsertIfAbsent of the same row as floats = %v, %v; want a no-op", ins, err)
	}
	if row, _ := tab.Get(StatePost, []Value{Int(1)}); len(row) != 2 || row[1] != Int(big) {
		t.Errorf("stored row = %v, want (1, 2^53) untouched", row)
	}
}

// A probe or write whose value list does not fit the attribute list cannot
// name a key: the calls that can report an error do, the others miss.
func TestValueCountMustMatchAttributes(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"a", "b", "v"}, []string{"a", "b"}))
	tab.MustInsert(Int(1), Int(2), Int(3))
	ab, short, long := []string{"a", "b"}, []Value{Int(1)}, []Value{Int(1), Int(2), Int(3)}
	for _, vals := range [][]Value{short, long, nil} {
		if rows, err := tab.Lookup(StatePost, ab, vals); err == nil {
			t.Errorf("Lookup(a, b = %v) = %v, want an error", vals, rows)
		}
		if _, _, err := tab.IndexCard(StatePost, []string{"v"}, vals); err == nil && len(vals) != 1 {
			t.Errorf("IndexCard(v = %v) succeeded", vals)
		}
		if n, err := DeleteRowsWhere(tab, ab, vals, nil); n != 0 || err == nil {
			t.Errorf("DeleteWhere(a, b = %v) = %d, %v; want an error", vals, n, err)
		}
		if n, err := UpdateRowsWhere(tab, ab, vals, []string{"v"}, []Value{Int(0)}, nil); n != 0 || err == nil {
			t.Errorf("UpdateWhere(a, b = %v) = %d, %v; want an error", vals, n, err)
		}
		if _, post, err := tab.UpdateKey(vals, []string{"v"}, []Value{Int(0)}); post != nil || err == nil {
			t.Errorf("UpdateKey(%v) = %v, %v; want an error", vals, post, err)
		}
		if row, ok := tab.Get(StatePost, vals); ok {
			t.Errorf("Get(%v) = %v", vals, row)
		}
		if tab.DeleteKey(vals) {
			t.Errorf("DeleteKey(%v) removed a row", vals)
		}
	}
	if row, ok := tab.Get(StatePost, []Value{Int(1), Int(2)}); !ok || row[2] != Int(3) {
		t.Errorf("the row changed: %v, %v", row, ok)
	}
}

// The write hooks walk the index lists without idxMu: installs and builds
// happen under mu.RLock, which the writer's mu.Lock excludes. Run under
// -race: pre-state readers — some of them installing cold indexes, both
// secondary and overlay — beside a writer that deletes buckets and inserts.
func TestPreStateReadersBesideBucketDeletes(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"k", "g", "h", "v"}, []string{"k"}))
	const n, groups = 4000, 40
	for i := 0; i < n; i++ {
		tab.MustInsert(Int(int64(i)), Int(int64(i%groups)), Int(int64(i%7)), Int(0))
	}
	tab.BeginEpoch()
	defer tab.EndEpoch()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r, attrs := range [][]string{{"g"}, {"g"}, {"g", "h"}, {"h", "g"}} {
		wg.Add(1)
		//ivmlint:allow gostmt — test reader goroutines beside the writer
		go func(r int, attrs []string) {
			defer wg.Done()
			pl := PrepareLookup(attrs)
			vals := make([]Value, len(attrs))
			var out []Tuple
			for i := r; !stop.Load(); i++ {
				g, want := int64(i%groups), n/groups
				for j, a := range attrs {
					vals[j] = Int(g)
					if a == "h" {
						vals[j] = Int(g % 7)
					}
				}
				if len(attrs) == 2 {
					want = 0 // rows with k ≡ g (mod 40) and k ≡ g mod 7 (mod 7)
					for k := int(g); k < n; k += groups {
						if int64(k%7) == g%7 {
							want++
						}
					}
				}
				var err error
				out, err = tab.LookupInto(StatePre, pl, vals, out[:0])
				if err != nil || len(out) != want {
					t.Errorf("pre LookupInto(%v=%v) = %d rows, %v; want %d", attrs, vals, len(out), err, want)
					return
				}
			}
		}(r, attrs)
	}
	next := int64(n)
	for round := 0; round < 200; round++ {
		g := Int(int64(round % groups))
		if _, err := DeleteRowsWhere(tab, []string{"g"}, []Value{g}, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			tab.MustInsert(Int(next), g, Int(next%7), Int(1))
			next++
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
