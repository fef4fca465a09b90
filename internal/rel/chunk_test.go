package rel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// An instance holds the write lock a chunk at a time: n diff tuples that
// affect a row each release it ⌈n / applyChunk⌉ − 1 times, a delete of heavy
// keys after every key, an empty instance never takes it. Pre-state
// readers — free-running ones, which contend for the lock at arbitrary points
// (run under -race), and one check made from inside every gap, while the
// instance provably does not hold the lock — must see exactly the state the
// epoch froze, whatever part of the insert, update and delete instances has
// been applied. No sleeps: the gaps are events (chunkGap).
func TestInstanceReleasesTheLockBetweenChunks(t *testing.T) {
	const n, groups, tuples = 2000, 10, 10*applyChunk + 7
	tab := MustNewTable("t", NewSchema([]string{"k", "g", "v"}, []string{"k"}))
	for i := int64(0); i < n; i++ {
		tab.MustInsert(Int(i), Int(i%groups), Int(0))
	}
	onG := PrepareLookup([]string{"g"})
	tab.BeginEpoch()
	defer tab.EndEpoch()
	// checkPre fails unless the pre-state is the n rows inserted above.
	checkPre := func(g int64, out []Tuple) []Tuple {
		if rows := tab.Scan(StatePre); len(rows) != n {
			t.Errorf("Scan(pre) = %d rows, want %d", len(rows), n)
		} else {
			for _, r := range rows[:64] {
				if r[0].AsInt() >= n || r[1].AsInt() != r[0].AsInt()%groups || r[2].AsInt() != 0 {
					t.Errorf("Scan(pre) holds %v", r)
				}
			}
		}
		out, err := tab.LookupInto(StatePre, onG, []Value{Int(g)}, out[:0])
		if err != nil || len(out) != n/groups {
			t.Errorf("pre LookupInto(g=%d) = %d rows, %v; want %d", g, len(out), err, n/groups)
		}
		for _, r := range out {
			if r[1].AsInt() != g || r[2].AsInt() != 0 || r[0].AsInt() >= n {
				t.Errorf("pre LookupInto(g=%d) holds %v", g, r)
			}
		}
		return out
	}

	gaps := 0
	var gapOut []Tuple
	defer tab.OnChunkGap(func() {
		gaps++
		if !tab.core.mu.TryRLock() { // only this goroutine ever writes: it is between two holds
			t.Error("the table lock is write-held inside a chunk gap")
			return
		}
		tab.core.mu.RUnlock()
		gapOut = checkPre(int64(gaps%groups), gapOut)
	})()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := int64(0); r < 2; r++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test reader goroutines beside the writer
		go func(g int64) {
			defer wg.Done()
			var out []Tuple
			for ; !stop.Load() && !t.Failed(); g = (g + 1) % groups {
				out = checkPre(g, out)
			}
		}(r)
	}

	// (v', g', k): inserts of new keys, then an update and a delete of every
	// other old key and of the new ones — each instance eleven chunks long.
	rows := make([]Tuple, tuples)
	for i := range rows {
		rows[i] = Tuple{Int(1), Int(int64(i % groups)), Int(n + int64(i))}
	}
	expect := func(what string, p, m int, err error, affected int) {
		t.Helper()
		if p != tuples || m != affected || err != nil {
			t.Errorf("%s = %d, %d, %v; want %d, %d", what, p, m, err, tuples, affected)
		}
		if want := (tuples+applyChunk-1)/applyChunk - 1; gaps != want {
			t.Errorf("%s of %d tuples released the lock %d times, want %d", what, tuples, gaps, want)
		}
		gaps = 0
	}
	p, m, err := tab.InsertIfAbsent(Diff(rows), []int{2, 1, 0}, nil)
	expect("InsertIfAbsent", p, m, err, tuples)
	for i := range rows {
		if i%2 == 0 {
			rows[i][2] = Int(int64(i)) // an old key: its row is in the pre-state
		}
		rows[i][1] = Int(int64((i + 1) % groups))
	}
	p, m, err = tab.UpdateWhere([]string{"k"}, Diff(rows), []int{2}, []string{"g", "v"}, []int{1, 0}, nil)
	expect("UpdateWhere", p, m, err, tuples)
	p, m, err = tab.DeleteWhere([]string{"k"}, Diff(rows), []int{2}, nil)
	expect("DeleteWhere", p, m, err, tuples)
	// Every odd group still holds its 200 odd old keys — more than a chunk's
	// worth: each key of a delete instance over them is a lock hold of its own.
	heavy := []Tuple{{Int(1)}, {Int(3)}, {Int(5)}, {Int(7)}}
	if p, m, err := tab.DeleteWhere([]string{"g"}, Diff(heavy), []int{0}, nil); p != 4 || m != 4*n/groups || err != nil || gaps != 3 {
		t.Errorf("DeleteWhere of 4 heavy keys = %d, %d, %v with %d lock releases; want 4, %d, 3 releases", p, m, err, gaps, 4*n/groups)
	}
	stop.Store(true)
	wg.Wait()

	// An empty instance returns without the lock: here it is taken.
	tab.core.mu.Lock()
	defer tab.core.mu.Unlock()
	if p, m, err := tab.InsertIfAbsent(Diff(nil), Cols(0, 3), nil); p != 0 || m != 0 || err != nil {
		t.Errorf("empty InsertIfAbsent = %d, %d, %v", p, m, err)
	}
	if p, m, err := tab.DeleteWhere([]string{"g"}, Diff(nil), Cols(0, 1), nil); p != 0 || m != 0 || err != nil {
		t.Errorf("empty DeleteWhere = %d, %d, %v", p, m, err)
	}
	if p, m, err := tab.UpdateWhere([]string{"g"}, Diff(nil), Cols(0, 1), []string{"v"}, Cols(1, 2), nil); p != 0 || m != 0 || err != nil {
		t.Errorf("empty UpdateWhere = %d, %d, %v", p, m, err)
	}
}
