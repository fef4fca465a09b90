// The reader-side plan cache: repeated QuerySnapshot SQL skips the parse
// and StatePre rewrite. Plans are immutable once built (the interpreted
// evaluator never mutates nodes), so one cached plan serves concurrent
// readers; the LRU bookkeeping itself is mutex-guarded. Entries key on
// the exact SQL text and resolve against the catalog at insertion time —
// the cache assumes the catalog is stable while serving (views are
// registered before the server attaches), like the rest of the serving
// layer.

package serve

import (
	"container/list"
	"sync"

	"idivm/internal/algebra"
)

// defaultPlanCache is the capacity of every server's plan cache.
const defaultPlanCache = 64

// planCache is a small LRU from SQL text to a parsed, StatePre-rewritten
// plan.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type planEntry struct {
	sql  string
	plan algebra.Node
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

func (c *planCache) get(sql string) (algebra.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[sql]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*planEntry).plan, true
}

func (c *planCache) put(sql string, plan algebra.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[sql]; ok {
		// A concurrent miss on the same SQL raced us here; both plans are
		// equivalent, keep the newer and refresh recency.
		e.Value.(*planEntry).plan = plan
		c.ll.MoveToFront(e)
		return
	}
	c.items[sql] = c.ll.PushFront(&planEntry{sql: sql, plan: plan})
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*planEntry).sql)
	}
}

// len reports the current entry count (tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
