package serve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/serve"
)

// TestQuerySnapshotPlanCache pins the hit/miss accounting and that cached
// plans return the same results as fresh parses.
func TestQuerySnapshotPlanCache(t *testing.T) {
	s := newServed(t, flushOpts)
	const sql = `SELECT pid, price FROM parts WHERE price < 50`

	first, err := s.srv.QuerySnapshot(sql)
	if err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	st := s.srv.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 0 {
		t.Fatalf("after first query: hits=%d misses=%d", st.PlanCacheHits, st.PlanCacheMisses)
	}
	for i := 0; i < 3; i++ {
		again, err := s.srv.QuerySnapshot(sql)
		if err != nil {
			t.Fatalf("QuerySnapshot (cached): %v", err)
		}
		if !again.EqualSet(first) {
			t.Fatalf("cached plan returned different rows")
		}
	}
	st = s.srv.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 3 {
		t.Fatalf("after repeats: hits=%d misses=%d, want 3/1", st.PlanCacheHits, st.PlanCacheMisses)
	}

	// A failed parse is a miss and is never cached.
	for i := 0; i < 2; i++ {
		if _, err := s.srv.QuerySnapshot("SELECT FROM nothing"); err == nil {
			t.Fatal("bad SQL parsed")
		}
	}

	// Another literal of the shape runs the shape's compiled plan, and
	// returns its own rows; another shape is its own entry.
	fewer, err := s.srv.QuerySnapshot(`SELECT pid, price FROM parts WHERE price < 10`)
	if err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	for _, r := range fewer.Tuples {
		if c, ok := r[1].Compare(rel.Int(10)); !ok || c >= 0 {
			t.Fatalf("price < 10 returned %v", r)
		}
	}
	if st = s.srv.Stats(); st.PlanCacheMisses != 3 || st.PlanCacheHits != 4 {
		t.Fatalf("another literal of the shape: hits=%d misses=%d, want 4/3", st.PlanCacheHits, st.PlanCacheMisses)
	}
	if _, err := s.srv.QuerySnapshot(`SELECT pid FROM parts WHERE price < 10`); err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	if st = s.srv.Stats(); st.PlanCacheMisses != 4 {
		t.Fatalf("another shape did not miss: %+v", st)
	}
}

// TestQuerySnapshotPlanCacheConcurrent shares one cached plan across
// concurrent readers while the dispatcher commits rounds — the shared
// immutable-plan claim, under -race. The writes go through the server (so
// the rounds really run beside the readers), and the writer stops only once
// every reader has read at least twice: a second read of the same SQL is a
// cache hit, so the final assertion cannot race the readers' start.
func TestQuerySnapshotPlanCacheConcurrent(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			s := newServedOn(t, eng.mk, serve.Options{MaxBatch: 8})
			const sql = `SELECT pid, price FROM parts WHERE price < 100`
			const readers = 4
			var wg sync.WaitGroup
			var reads [readers]atomic.Int64
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				//ivmlint:allow gostmt — test reader goroutines sharing one cached plan
				go func(n *atomic.Int64) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := s.srv.QuerySnapshot(sql); err != nil {
							t.Errorf("QuerySnapshot: %v", err)
							n.Store(2) // let the writer finish
							return
						}
						n.Add(1)
					}
				}(&reads[r])
			}
			everyReaderReadTwice := func() bool {
				for r := range reads {
					if reads[r].Load() < 2 {
						return false
					}
				}
				return true
			}
			for i := 0; i < 50 || !everyReaderReadTwice(); i++ {
				pid, price := rel.Int(int64(i%testParams().Parts)), rel.Int(int64(1+i%100))
				p := s.srv.EnqueueUpdate("parts", []rel.Value{pid}, []string{"price"}, []rel.Value{price})
				if err := s.srv.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				if err := p.Wait(); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			close(stop)
			wg.Wait()
			st := s.srv.Stats()
			if st.Ops < 50 || st.Rounds == 0 {
				t.Fatalf("the writes bypassed the server: %+v", st)
			}
			if st.PlanCacheHits == 0 {
				t.Fatalf("no cache hits under concurrency: %+v", st)
			}
		})
	}
}

// TestQuerySnapshotShapeCacheConcurrent runs readers of one statement shape
// with a different key on every read beside dispatcher rounds: the readers
// bind their own literals into the shape's one template and its compiled
// plan concurrently — under -race in make race-serving —, a reader that
// finds the plan checked out compiling a copy of its own. Every read must
// return its own part and nothing else.
func TestQuerySnapshotShapeCacheConcurrent(t *testing.T) {
	s := newServedOn(t, nil, serve.Options{MaxBatch: 8})
	parts := testParams().Parts
	const readers = 4
	var wg sync.WaitGroup
	var reads [readers]atomic.Int64
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test readers parsing one shape with distinct literals
		go func(r int, n *atomic.Int64) {
			defer wg.Done()
			for i := r; ; i += readers {
				select {
				case <-stop:
					return
				default:
				}
				pid := int64(i % parts)
				got, err := s.srv.QuerySnapshot(fmt.Sprintf("SELECT pid, price FROM parts WHERE pid = %d", pid))
				if err == nil && (got.Len() != 1 || !got.Tuples[0][0].Same(rel.Int(pid))) {
					err = fmt.Errorf("read of part %d returned %v", pid, got)
				}
				if err != nil {
					t.Error(err)
					n.Store(int64(parts)) // let the writer finish
					return
				}
				n.Add(1)
			}
		}(r, &reads[r])
	}
	everyReaderReadAll := func() bool {
		for r := range reads {
			if reads[r].Load() < int64(parts/readers) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20 || !everyReaderReadAll(); i++ {
		pid, price := rel.Int(int64(i%parts)), rel.Int(int64(1+i%100))
		p := s.srv.EnqueueUpdate("parts", []rel.Value{pid}, []string{"price"}, []rel.Value{price})
		if err := s.srv.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := p.Wait(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if st := s.srv.Stats(); st.PlanCacheHits == 0 {
		t.Fatalf("no reader ran the shape's compiled plan: %+v", st)
	}
	if n := s.ds.DB.Memo().Len(); n != 1 {
		t.Fatalf("%d shapes kept, want 1", n)
	}
}
