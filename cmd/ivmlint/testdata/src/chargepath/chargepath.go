// Package chargepath is the seeded fixture for the chargepath analyzer:
// deliberate violations (a charged-shape call on the raw backend
// interface and the three uncharged batch-converter escapes) and one
// blessed suppression (a Backend() escape).
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
	return b.Materialize() // violation: uncharged materialization outside the compiled plans
}

// A step result's tuples are built only where internal/ivm blesses it.
func tuplesOf(bd *rel.Binding) *rel.Relation {
	return bd.Relation() // violation: a tuple build off the blessed sites
}
