package rel

import "sync"

// Binding is the value of a named in-memory relation — a base i-diff
// instance or a Δ-script step's result — held in the form it was produced in
// (tuples or columns) and converted to the other at most once, on demand.
// The compiled operators read Batch and the APPLY statements, the Eval
// oracle and the self-check read Relation, so a step result that only
// further compute steps read never becomes tuples, and an instance many
// steps (or many views) read is columnarised once. Both conversions are
// once-guarded: a binding may be read by concurrently scheduled steps and,
// for a round's base instances, by concurrently maintained views. Like the
// relations and batches it holds, a binding is read-only.
//
// The conversions live here, inside the kernel layer, so that the Δ-script
// executor never calls a tuple↔batch converter itself (ivmlint's chargepath
// rule): what a binding converts was produced from Handle-charged rows or
// from the modification log, and converting it charges nothing.
type Binding struct {
	n         int
	batch     *Batch    // set by BindBatch, else by the first Batch call
	rel       *Relation // set by BindRelation, else by the first Relation call
	batchOnce sync.Once
	relOnce   sync.Once
}

// BindBatch holds a compiled plan's root batch.
func BindBatch(b *Batch) *Binding { return &Binding{n: b.N, batch: b} }

// BindRelation holds a relation of tuples.
func BindRelation(r *Relation) *Binding { return &Binding{n: len(r.Tuples), rel: r} }

// Len returns the row count; it converts nothing.
func (g *Binding) Len() int { return g.n }

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
