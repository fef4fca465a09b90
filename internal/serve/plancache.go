// The plan cache: every SQL read of a database — Server.QuerySnapshot and the
// facade's Query and QuerySnapshot — runs a compiled plan of its statement's
// shape (sqlview.Run), kept beside the shape's template in the database's
// one LRU of shapes (db.Memo): a read of a kept shape in a read state it was
// compiled for binds its literals into the compiled plan's parameters and
// skips the parse and the compile, whatever its literals. Plans resolve
// against the catalog when compiled, and a shape whose tables were dropped
// or redefined since is parsed and compiled anew.
//
// An algebra.ExecPlan owns scratch and must not run on two goroutines at
// once, so a read checks its plan out for the length of the read and then
// puts it back; a concurrent read of the same shape compiles its own copy. No
// lock is held while a plan runs.

package serve

import (
	"sync/atomic"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/sqlview"
)

// PlanCache is a database's one way to run SQL reads on compiled plans: the
// server's when it is served, its own otherwise. It counts the reads that
// found their shape's compiled plan idle. It is safe for concurrent use.
type PlanCache struct {
	d            *db.Database
	hits, misses atomic.Int64
}

// NewPlanCache returns a plan cache over d's catalog, whose shape store
// holds the plans.
func NewPlanCache(d *db.Database) *PlanCache { return &PlanCache{d: d} }

// Read runs fn on sql's compiled plan reading state st — its shape's idle
// compiled plan with sql's literals bound (a hit) or a fresh compile (a
// miss; SQL that fails to parse or compile counts as one and is not kept) —
// checked out while fn runs and put back after.
func (c *PlanCache) Read(sql string, st rel.State, fn func(*algebra.ExecPlan) (*rel.Relation, error)) (*rel.Relation, error) {
	r, hit, err := sqlview.Run(sql, c.d, st, fn)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, err
}
