package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/rel"
)

func cachePlan(name string) *algebra.ExecPlan {
	return algebra.MustCompile(algebra.NewScan(name, "", rel.NewSchema([]string{"k"}, []string{"k"})))
}

func key(i int) planKey { return planKey{sql: fmt.Sprintf("q%d", i), st: rel.StatePre} }

// len reports the idle entry count.
func (c *PlanCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(nil)
	plans := make([]*algebra.ExecPlan, planCacheSize)
	for i := range plans {
		plans[i] = cachePlan(key(i).sql)
		c.put(key(i), plans[i])
	}
	if c.len() != planCacheSize {
		t.Fatalf("len = %d, want %d", c.len(), planCacheSize)
	}
	// A checked-out plan is not in the cache until it is put back.
	if p := c.take(key(0)); p != plans[0] {
		t.Fatalf("take q0 = %p, want %p", p, plans[0])
	}
	if p := c.take(key(0)); p != nil || c.len() != planCacheSize-1 {
		t.Fatalf("q0 checked out twice (len %d)", c.len())
	}
	// Putting q0 back makes it the most recent; one more plan evicts q1.
	c.put(key(0), plans[0])
	c.put(key(planCacheSize), cachePlan("new"))
	if c.len() != planCacheSize {
		t.Fatalf("len after evict = %d, want %d", c.len(), planCacheSize)
	}
	if p := c.take(key(1)); p != nil {
		t.Fatal("q1 survived eviction past capacity")
	}
	// The same SQL under the other read state is another plan.
	if p := c.take(planKey{sql: key(2).sql, st: rel.StatePost}); p != nil {
		t.Fatal("a live read found the snapshot plan")
	}
	// When a concurrent reader's copy came back first, it stays.
	c.put(key(0), cachePlan("copy"))
	if p := c.take(key(0)); p != plans[0] || c.len() != planCacheSize-1 {
		t.Fatalf("second copy of q0 replaced the first (len %d)", c.len())
	}
}

// TestPlanCacheConcurrent hammers the checkout rule: however many goroutines
// read the same SQL, no plan is ever held by two of them at once, and the
// cache never outgrows its capacity.
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(nil)
	var held sync.Map // *algebra.ExecPlan → *atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test goroutines hammering the cache
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key((g + i) % (planCacheSize + planCacheSize/2))
				p := c.take(k)
				if p == nil {
					p = cachePlan(k.sql)
				}
				busy, _ := held.LoadOrStore(p, new(atomic.Bool))
				if !busy.(*atomic.Bool).CompareAndSwap(false, true) {
					t.Errorf("plan %s checked out by two readers", k.sql)
					return
				}
				runtime.Gosched() // hold the plan across a reschedule
				busy.(*atomic.Bool).Store(false)
				c.put(k, p)
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n > planCacheSize {
		t.Fatalf("cache overgrew its capacity: %d", n)
	}
}
