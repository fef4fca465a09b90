package rel

import "sync"

// Binding is the value of a named in-memory relation — a base i-diff
// instance or a Δ-script step's result — held in the form it was produced in
// (tuples or columns) and converted to the other at most once, on demand.
// The compiled operators and the APPLY statements read Batch; only the Eval
// oracle, the executor's self-check and a reader of a view's applied i-diffs
// (ivm.Instance.Tuples) read Relation. So no step result becomes tuples on
// the maintenance path, and an instance many steps (or many views) read is
// columnarised once. Both conversions are once-guarded: a binding may be
// read by concurrently scheduled steps, for a round's base instances by
// concurrently maintained views, and for an applied instance by any number
// of delta subscribers, on their own goroutines, long after its round. Like
// the relations and batches it holds, a binding is read-only.
//
// The conversions live here, inside the kernel layer, so that the Δ-script
// executor never calls a tuple↔batch converter itself (ivmlint's chargepath
// rule): what a binding converts was produced from Handle-charged rows or
// from the modification log, and converting it charges nothing.
type Binding struct {
	n         int
	sch       Schema
	batch     *Batch    // set by BindBatch, else by the first Batch call
	rel       *Relation // set by BindRelation, else by the first Relation call
	batchOnce sync.Once
	relOnce   sync.Once
}

// BindBatch holds a compiled plan's root batch.
func BindBatch(b *Batch) *Binding { return &Binding{n: b.N, sch: b.Schema, batch: b} }

// BindRelation holds a relation of tuples.
func BindRelation(r *Relation) *Binding { return &Binding{n: len(r.Tuples), sch: r.Schema, rel: r} }

// Len returns the row count; it converts nothing.
func (g *Binding) Len() int { return g.n }

// Schema returns the producer's schema, the one both forms carry; it
// converts nothing.
func (g *Binding) Schema() Schema { return g.sch }

// Batch returns the rows as columns, under the producer's schema.
func (g *Binding) Batch() *Batch {
	g.batchOnce.Do(func() {
		if g.batch == nil {
			g.batch = FromRelation(g.rel)
		}
	})
	return g.batch
}

// Relation returns the rows as tuples.
func (g *Binding) Relation() *Relation {
	g.relOnce.Do(func() {
		if g.rel == nil {
			g.rel = g.batch.Materialize()
		}
	})
	return g.rel
}
