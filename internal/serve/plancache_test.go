package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
)

// shapes is the capacity of the database's shape store (db.Memo), which
// holds the compiled plans.
const shapes = 64

// keyed holds t(k, v) with v = 10·k for k < 8.
func keyed() *db.Database {
	d := db.New()
	h := d.MustCreateTable("t", rel.NewSchema([]string{"k", "v"}, []string{"k"}))
	for k := int64(0); k < 8; k++ {
		h.MustInsert(rel.Int(k), rel.Int(10*k))
	}
	return d
}

// shapeSQL is a read of key k in the i-th shape: each shape names another
// output alias.
func shapeSQL(i, k int) string { return fmt.Sprintf("SELECT v AS v%d FROM t WHERE k = %d", i, k) }

// readKey reads shapeSQL(i, k) through c in state st, checks that it
// returned k's row, and returns the plan it ran.
func readKey(t *testing.T, c *PlanCache, i, k int, st rel.State) *algebra.ExecPlan {
	t.Helper()
	var ran *algebra.ExecPlan
	r, err := c.Read(shapeSQL(i, k), st, func(p *algebra.ExecPlan) (*rel.Relation, error) {
		ran = p
		return p.Run(c.d)
	})
	if err != nil || r.Len() != 1 || !r.Tuples[0][0].Same(rel.Int(int64(10*k))) {
		t.Fatalf("%s: %v, %v", shapeSQL(i, k), r, err)
	}
	return ran
}

// One compiled plan per shape and read state serves every literal, and the
// shape store evicts the least recently used shape past its capacity.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(keyed())
	p0 := readKey(t, c, 0, 1, rel.StatePre)
	for k := 2; k < 8; k++ {
		if p := readKey(t, c, 0, k, rel.StatePre); p != p0 {
			t.Fatalf("key %d ran another plan than key 1 of the same shape", k)
		}
	}
	if p := readKey(t, c, 0, 1, rel.StatePost); p == p0 {
		t.Fatal("a live read ran the snapshot plan")
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 6 || m != 2 {
		t.Fatalf("hits %d, misses %d; want 6 and 2", h, m)
	}
	// shapes other shapes evict shape 0, the least recently used.
	for i := 1; i <= shapes; i++ {
		readKey(t, c, i, 3, rel.StatePre)
	}
	if p := readKey(t, c, 0, 4, rel.StatePre); p == p0 {
		t.Fatal("shape 0 survived eviction past capacity")
	}
	// Shape 0 came back and evicted shape 1; shape 2 is still kept.
	h := c.hits.Load()
	readKey(t, c, 2, 5, rel.StatePre)
	if c.hits.Load() != h+1 {
		t.Fatal("a kept shape missed")
	}
}

// TestPlanCacheConcurrent hammers the checkout rule: however many goroutines
// read the same shapes with their own keys, no plan is ever held by two of
// them at once and every read returns its own key's row.
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(keyed())
	env := db.Uncharged{Database: c.d} // concurrent reads charge no counter, as snapshot reads do
	var held sync.Map                  // *algebra.ExecPlan → *atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test goroutines hammering the cache
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				shape, k := (g+i)%(shapes+shapes/2), (g+i)%8
				r, err := c.Read(shapeSQL(shape, k), rel.StatePre, func(p *algebra.ExecPlan) (*rel.Relation, error) {
					busy, _ := held.LoadOrStore(p, new(atomic.Bool))
					if !busy.(*atomic.Bool).CompareAndSwap(false, true) {
						return nil, fmt.Errorf("plan of shape %d checked out by two readers", shape)
					}
					defer busy.(*atomic.Bool).Store(false)
					runtime.Gosched() // hold the plan across a reschedule
					return p.Run(env)
				})
				if err == nil && (r.Len() != 1 || !r.Tuples[0][0].Same(rel.Int(int64(10*k)))) {
					err = fmt.Errorf("%s returned %v", shapeSQL(shape, k), r)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.d.Memo().Len(); n > shapes {
		t.Fatalf("the shape store overgrew its capacity: %d", n)
	}
}
