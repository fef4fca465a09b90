// The plan cache: every SQL read of a database — Server.QuerySnapshot and the
// facade's Query and QuerySnapshot — runs a compiled plan from one LRU keyed
// on the SQL text plus the state the plan reads, so repeated SQL skips the
// parse and the compile. Plans resolve against the catalog when compiled:
// no table may be dropped or redefined while the cache lives.
//
// An algebra.ExecPlan owns scratch and must not run on two goroutines at
// once, so a read checks its plan out for the length of the read and then
// puts it back; a concurrent read of the same SQL compiles its own copy. No
// lock is held while a plan runs.

package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/sqlview"
)

// planCacheSize is the capacity of every plan cache.
const planCacheSize = 64

// PlanCache is a database's one cache of compiled read plans: the server's
// when it is served, its own otherwise. It is safe for concurrent use.
type PlanCache struct {
	d            *db.Database
	mu           sync.Mutex
	ll           *list.List // idle plans; front = most recently used
	items        map[planKey]*list.Element
	hits, misses atomic.Int64
}

// planKey names a plan: its SQL text and the state its stored tables read —
// rel.StatePost for a live query, rel.StatePre for a snapshot.
type planKey struct {
	sql string
	st  rel.State
}

type planEntry struct {
	key  planKey
	plan *algebra.ExecPlan
}

// NewPlanCache returns an empty cache over d's catalog.
func NewPlanCache(d *db.Database) *PlanCache {
	return &PlanCache{d: d, ll: list.New(), items: make(map[planKey]*list.Element, planCacheSize)}
}

// Read runs fn on sql's compiled plan reading state st — an idle cached one (a
// hit) or a fresh compile (a miss; SQL that fails to compile is not cached) —
// checked out while fn runs and put back after.
func (c *PlanCache) Read(sql string, st rel.State, fn func(*algebra.ExecPlan) (*rel.Relation, error)) (*rel.Relation, error) {
	k := planKey{sql, st}
	p := c.take(k)
	if p != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		v, err := sqlview.Parse(sql, c.d)
		if err != nil {
			return nil, err
		}
		if p, err = algebra.Compile(algebra.WithState(v.Plan, st)); err != nil {
			return nil, err
		}
	}
	defer c.put(k, p)
	return fn(p)
}

// take checks k's idle plan out of the cache, or returns nil.
func (c *PlanCache) take(k planKey) *algebra.ExecPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.ll.Remove(e)
		delete(c.items, k)
		return e.Value.(*planEntry).plan
	}
	return nil
}

// put returns a plan as the most recently used entry, evicting the least
// recently used past capacity; if another reader's copy is back first, p goes.
func (c *PlanCache) put(k planKey, p *algebra.ExecPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		return
	}
	c.items[k] = c.ll.PushFront(&planEntry{key: k, plan: p})
	if c.ll.Len() > planCacheSize {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*planEntry).key)
	}
}
