package serve_test

import (
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

	// A failed parse is never cached: each attempt is a fresh miss-less
	// error (the counters only move for parseable SQL).
	if _, err := s.srv.QuerySnapshot("SELECT FROM nothing"); err == nil {
		t.Fatal("bad SQL parsed")
	}

	// Distinct SQL is its own entry.
	if _, err := s.srv.QuerySnapshot(`SELECT pid, price FROM parts WHERE price < 10`); err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	st = s.srv.Stats()
	if st.PlanCacheMisses < 2 {
		t.Fatalf("distinct SQL did not miss: %+v", st)
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
