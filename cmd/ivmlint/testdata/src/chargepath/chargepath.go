// Package chargepath is the seeded fixture for the chargepath analyzer:
// deliberate violations (a charged-shape call on the raw backend
// interface, the three uncharged batch-converter escapes, and a
// key-frequency stats read outside the planner) and two blessed
// suppressions (a Backend() escape and a stats read).
package chargepath

import (
	"idivm/internal/rel"
	"idivm/internal/storage"
)

func rawScan(t storage.Table) []rel.Tuple {
	return t.Scan(rel.StatePost) // violation: charged access bypassing the Handle
}

func escape(h *storage.Handle) storage.Table {
	return h.Backend() //ivmlint:allow chargepath — fixture bless: registration path
}

// The batch converters are uncharged by design; outside internal/algebra
// (compiled plan leaves, ExecPlan.Run, the nested-loop strategies) and
// internal/rel they move tuples around the charge point.

func smuggleIn(rows []rel.Tuple) *rel.Batch {
	sch := rel.NewSchema([]string{"a"}, nil)
	return rel.FromTuples(sch, rows) // violation: uncharged batch conversion outside the compiled plans
}

func smuggleRel(r *rel.Relation) *rel.Batch {
	return rel.FromRelation(r) // violation: uncharged batch conversion outside the compiled plans
}

func smuggleOut(b *rel.Batch) *rel.Relation {
	return b.Materialize(0) // violation: uncharged materialization outside the compiled plans
}

// The key-frequency statistics are uncharged like IndexCard — sound while
// they steer plan choice inside the planner, a free data channel anywhere
// else.

func statsPeek(h *storage.Handle) ([]rel.KeyCount, error) {
	return h.HeavyKeys(rel.StatePost, []string{"a"}, 1) // violation: uncharged stats read outside the planner
}

func statsBless(h *storage.Handle) ([]rel.KeyCount, error) {
	return h.HeavyKeys(rel.StatePost, []string{"a"}, 2) //ivmlint:allow chargepath — fixture bless: ops introspection
}
