package rel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// Property: incrementally maintained secondary indexes always agree with
// a freshly built index, under random insert/update/delete churn.
func TestIncrementalIndexAgreesWithRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := MustNewTable("t", NewSchema([]string{"k", "g", "v"}, []string{"k"}))

	// Force the index into existence before churn so every mutation path
	// exercises the incremental maintenance hooks.
	if _, err := tab.Lookup(StatePost, []string{"g"}, []Value{Int(0)}); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 2000; step++ {
		k := int64(rng.Intn(120))
		switch rng.Intn(3) {
		case 0:
			_ = tab.Insert(Tuple{Int(k), Int(int64(rng.Intn(8))), Int(int64(rng.Intn(100)))})
		case 1:
			tab.DeleteKey([]Value{Int(k)})
		case 2:
			_, _, _ = tab.UpdateKey([]Value{Int(k)}, []string{"g"}, []Value{Int(int64(rng.Intn(8)))})
		}

		if step%97 != 0 {
			continue
		}
		// Compare the live index against a rebuild for every group value.
		for g := int64(0); g < 8; g++ {
			got, err := tab.Lookup(StatePost, []string{"g"}, []Value{Int(g)})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, row := range tab.Rows(StatePost) {
				if row[1].Same(Int(g)) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("step %d g=%d: index has %d rows, table has %d", step, g, len(got), want)
			}
			for _, row := range got {
				if !row[1].Same(Int(g)) {
					t.Fatalf("step %d: index returned wrong-group row %v", step, row)
				}
			}
		}
	}
}

// Property: multi-attribute indexes stay consistent across updates that
// move rows between buckets.
func TestMultiAttrIndexUnderUpdates(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"k", "a", "b"}, []string{"k"}))
	for i := int64(0); i < 20; i++ {
		tab.MustInsert(Int(i), Int(i%3), Int(i%4))
	}
	if rows, err := tab.Lookup(StatePost, []string{"a", "b"}, []Value{Int(0), Int(0)}); err != nil || len(rows) != 2 {
		t.Fatalf("initial (0,0) rows = %d err=%v", len(rows), err) // 0 and 12
	}
	// Move key 0 to bucket (1,1).
	if _, _, err := tab.UpdateKey([]Value{Int(0)}, []string{"a", "b"}, []Value{Int(1), Int(1)}); err != nil {
		t.Fatal(err)
	}
	rows, _ := tab.Lookup(StatePost, []string{"a", "b"}, []Value{Int(0), Int(0)})
	if len(rows) != 1 {
		t.Fatalf("(0,0) after move = %d, want 1", len(rows))
	}
	rows, _ = tab.Lookup(StatePost, []string{"a", "b"}, []Value{Int(1), Int(1)})
	// originally 1 and 13 are (1,1); plus the moved key 0.
	if len(rows) != 3 {
		t.Fatalf("(1,1) after move = %d, want 3", len(rows))
	}
}

// Deleting via a secondary index while that index is live must not leave
// stale positions (the swap-remove move path).
func TestDeleteWhereKeepsIndexesFresh(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"k", "g"}, []string{"k"}))
	for i := int64(0); i < 10; i++ {
		tab.MustInsert(Int(i), Int(i%2))
	}
	n, err := DeleteRowsWhere(tab, []string{"g"}, []Value{Int(0)}, nil)
	if err != nil || n != 5 {
		t.Fatalf("DeleteWhere: n=%d err=%v", n, err)
	}
	rows, _ := tab.Lookup(StatePost, []string{"g"}, []Value{Int(1)})
	if len(rows) != 5 {
		t.Fatalf("g=1 rows = %d, want 5", len(rows))
	}
	rows, _ = tab.Lookup(StatePost, []string{"g"}, []Value{Int(0)})
	if len(rows) != 0 {
		t.Fatalf("g=0 rows = %d, want 0", len(rows))
	}
	for _, r := range tab.Rows(StatePost) {
		if r[1].AsInt() != 1 {
			t.Fatalf("leftover row %v", r)
		}
	}
}

// Concurrent cold probes of the same index must build it exactly once
// (single-flight): concurrent Δ-script steps and snapshot readers can hit
// the same cold index at the same instant. Run with -race to catch unlocked
// paths.
func TestColdIndexBuildsOnce(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"k", "g"}, []string{"k"}))
	for i := int64(0); i < 500; i++ {
		tab.MustInsert(Int(i), Int(i%7))
	}
	const readers = 16
	start := make(chan struct{})
	done := make(chan int, readers)
	for w := 0; w < readers; w++ {
		//ivmlint:allow gostmt — deliberate raw goroutines: the test stresses the single-flight build, not the pool
		go func(w int) {
			<-start
			rows, err := tab.Lookup(StatePost, []string{"g"}, []Value{Int(int64(w % 7))})
			if err != nil {
				done <- -1
				return
			}
			done <- len(rows)
		}(w)
	}
	close(start)
	for w := 0; w < readers; w++ {
		if n := <-done; n < 0 {
			t.Fatal("lookup failed")
		}
	}
	if got := atomicLoadBuilds(tab); got != 1 {
		t.Fatalf("cold index built %d times, want 1 (single-flight)", got)
	}
	// A second distinct signature is a second build, not more.
	if _, err := tab.Lookup(StatePost, []string{"k", "g"}, []Value{Int(1), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if got := atomicLoadBuilds(tab); got != 2 {
		t.Fatalf("builds after second signature = %d, want 2", got)
	}
}

// A failed build (unknown attribute) must stay failed, charge no index,
// and never be touched by the mutation hooks.
func TestFailedIndexEntryIsInert(t *testing.T) {
	tab := MustNewTable("t", NewSchema([]string{"k", "g"}, []string{"k"}))
	tab.MustInsert(Int(1), Int(2))
	if _, err := tab.Lookup(StatePost, []string{"nope"}, []Value{Int(1)}); err == nil {
		t.Fatal("lookup on unknown attr must fail")
	}
	if _, err := tab.Lookup(StatePost, []string{"nope"}, []Value{Int(1)}); err == nil {
		t.Fatal("cached failed entry must still fail")
	}
	// Mutations must skip the nil index of the failed entry.
	tab.MustInsert(Int(2), Int(3))
	if !tab.DeleteKey([]Value{Int(1)}) {
		t.Fatal("delete")
	}
	rows, err := tab.Lookup(StatePost, []string{"g"}, []Value{Int(3)})
	if err != nil || len(rows) != 1 {
		t.Fatalf("g=3 rows = %d, err %v", len(rows), err)
	}
}

// atomicLoadBuilds reads the table's build counter.
func atomicLoadBuilds(t *Table) int64 {
	return atomic.LoadInt64(&t.core.idxBuilds)
}
