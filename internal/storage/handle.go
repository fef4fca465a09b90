package storage

import "idivm/internal/rel"

// Handle binds a backend table to a cost counter, implementing the
// access-count cost model of the paper's Section 6 as a decorator:
// backends store, the Handle charges. Every consumer above the storage
// boundary (catalog, evaluators, Δ-script executor) holds a *Handle, so
// each backend is costed by exactly one piece of code and access counts
// are identical across engines by construction.
//
// Charging rules (matching the historical rel.Table accounting, which the
// CI bench gate pins):
//
//   - Scan: one tuple read per row returned.
//   - Get: one index lookup, plus one tuple read when found.
//   - Lookup/LookupInto: on success, one index lookup plus one tuple read
//     per match; nothing on an index error.
//   - Insert: one tuple write on success; nothing on a width/duplicate
//     error.
//   - InsertIfAbsent: once the row width is valid, one index lookup (even
//     when the row exists or conflicts), plus one tuple write when
//     inserted.
//   - DeleteKey: one index lookup, plus one tuple write when removed.
//   - DeleteWhere/UpdateWhere: on success, one index lookup plus one
//     tuple write per affected row; nothing on a validation/index error.
//   - UpdateKey: on success, one index lookup plus one tuple write when
//     the row exists.
//   - Rows, Relation, Len, IndexCard and the epoch operations are
//     uncharged (verification utilities, catalog statistics, and the
//     snapshot the paper models as reading the log).
//
// WithCounter derives a handle over the same backend charging a different
// counter — how the parallel executor shards cost attribution without
// racing on one counter (a nil counter discards charges).
type Handle struct {
	t       Table
	counter *rel.CostCounter
}

// NewHandle wraps a backend table in a counting handle with no counter
// attached.
func NewHandle(t Table) *Handle { return &Handle{t: t} }

// Backend returns the wrapped backend table (uncounted; for tests and
// engine-specific tooling).
func (h *Handle) Backend() Table { return h.t }

// SetCounter attaches the cost counter charged by subsequent accesses
// through this handle.
func (h *Handle) SetCounter(c *rel.CostCounter) { h.counter = c }

// WithCounter returns a handle over the same backend that charges its
// accesses to c instead.
func (h *Handle) WithCounter(c *rel.CostCounter) *Handle {
	if c == h.counter {
		return h
	}
	return &Handle{t: h.t, counter: c}
}

// Merge folds a detached counter shard into this handle's counter (a nil
// counter discards it, matching charge). Parallel operator kernels give
// each worker a WithCounter shard and fold the shards back in a fixed
// order; counter fields are sums, so the fold order cannot change totals.
func (h *Handle) Merge(c rel.CostCounter) {
	if h.counter != nil {
		h.counter.Add(c)
	}
}

func (h *Handle) charge(reads, lookups, writes int64) {
	if h.counter != nil {
		h.counter.TupleReads += reads
		h.counter.IndexLookups += lookups
		h.counter.TupleWrites += writes
	}
}

// Name implements Table.
func (h *Handle) Name() string { return h.t.Name() }

// Schema implements Table.
func (h *Handle) Schema() rel.Schema { return h.t.Schema() }

// Len implements Table (uncharged).
func (h *Handle) Len() int { return h.t.Len() }

// Rows implements Table (uncharged; see Table.Rows for the contract).
func (h *Handle) Rows(s rel.State) []rel.Tuple { return h.t.Rows(s) }

// Relation implements Table (uncharged snapshot utility).
func (h *Handle) Relation(s rel.State) *rel.Relation { return h.t.Relation(s) }

// IndexCard implements Table (uncharged catalog statistics).
func (h *Handle) IndexCard(s rel.State, attrs []string, vals []rel.Value) (p, n int, err error) {
	return h.t.IndexCard(s, attrs, vals)
}

// Scan implements Table, charging one tuple read per row.
func (h *Handle) Scan(s rel.State) []rel.Tuple {
	rows := h.t.Scan(s)
	h.charge(int64(len(rows)), 0, 0)
	return rows
}

// Parts implements Table (uncharged runtime statistics, like IndexCard).
func (h *Handle) Parts() int { return h.t.Parts() }

// ScanPart implements Table, charging one tuple read per row returned —
// scanning all parts charges exactly what one flat Scan would, so
// partition-parallel kernels leave every counter byte-identical to the
// sequential plan by construction.
func (h *Handle) ScanPart(s rel.State, i int) []rel.Tuple {
	rows := h.t.ScanPart(s, i)
	h.charge(int64(len(rows)), 0, 0)
	return rows
}

// Get implements Table, charging one index lookup plus one read when found.
func (h *Handle) Get(s rel.State, key []rel.Value) (rel.Tuple, bool) {
	row, ok := h.t.Get(s, key)
	h.charge(0, 1, 0)
	if !ok {
		return nil, false
	}
	h.charge(1, 0, 0)
	return row, true
}

// Lookup implements Table, charging one index lookup plus one read per
// match on success.
func (h *Handle) Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error) {
	rows, err := h.t.Lookup(s, attrs, vals)
	if err != nil {
		return nil, err
	}
	h.charge(int64(len(rows)), 1, 0)
	return rows, nil
}

// LookupInto implements Table; the charge is identical to Lookup's.
func (h *Handle) LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, out []rel.Tuple) ([]rel.Tuple, error) {
	n0 := len(out)
	out, err := h.t.LookupInto(s, pl, vals, out)
	if err != nil {
		return out, err
	}
	h.charge(int64(len(out)-n0), 1, 0)
	return out, nil
}

// Insert implements Table, charging one tuple write on success.
func (h *Handle) Insert(row rel.Tuple) error {
	err := h.t.Insert(row)
	if err == nil {
		h.charge(0, 0, 1)
	}
	return err
}

// MustInsert is Insert that panics on error, for generators and tests.
func (h *Handle) MustInsert(vals ...rel.Value) {
	if err := h.Insert(rel.Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertIfAbsent implements Table. Once the width check passes, one index
// lookup is always charged — even when the row already exists or
// conflicts — plus one write when the row is inserted.
func (h *Handle) InsertIfAbsent(row rel.Tuple) (bool, error) {
	if len(row) != len(h.t.Schema().Attrs) {
		return h.t.InsertIfAbsent(row) // width error, uncharged
	}
	h.charge(0, 1, 0)
	inserted, err := h.t.InsertIfAbsent(row)
	if inserted {
		h.charge(0, 0, 1)
	}
	return inserted, err
}

// DeleteKey implements Table, charging one index lookup plus one write
// when a row is removed.
func (h *Handle) DeleteKey(key []rel.Value) bool {
	h.charge(0, 1, 0)
	if !h.t.DeleteKey(key) {
		return false
	}
	h.charge(0, 0, 1)
	return true
}

// DeleteWhere implements Table, charging one index lookup plus one write
// per removed row on success — with or without fn, which observes
// pre-images the backend already holds, not extra probes.
func (h *Handle) DeleteWhere(attrs []string, vals []rel.Value, fn func(pre rel.Tuple)) (int, error) {
	n, err := h.t.DeleteWhere(attrs, vals, fn)
	if err != nil {
		return n, err
	}
	h.charge(0, 1, int64(n))
	return n, nil
}

// UpdateWhere implements Table, charging one index lookup plus one write
// per updated row on success, with or without fn like DeleteWhere.
func (h *Handle) UpdateWhere(attrs []string, vals []rel.Value, setAttrs []string, setVals []rel.Value, fn func(pre, post rel.Tuple)) (int, error) {
	n, err := h.t.UpdateWhere(attrs, vals, setAttrs, setVals, fn)
	if err != nil {
		return n, err
	}
	h.charge(0, 1, int64(n))
	return n, nil
}

// UpdateKey implements Table, charging one index lookup plus one write
// when the row exists.
func (h *Handle) UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (bool, error) {
	ok, err := h.t.UpdateKey(key, setAttrs, setVals)
	if err != nil {
		return ok, err
	}
	var w int64
	if ok {
		w = 1
	}
	h.charge(0, 1, w)
	return ok, nil
}

// BeginEpoch implements Table (uncharged).
func (h *Handle) BeginEpoch() { h.t.BeginEpoch() }

// AdvanceEpoch implements Table (uncharged).
func (h *Handle) AdvanceEpoch() { h.t.AdvanceEpoch() }

// EndEpoch implements Table (uncharged).
func (h *Handle) EndEpoch() { h.t.EndEpoch() }

// InEpoch implements Table.
func (h *Handle) InEpoch() bool { return h.t.InEpoch() }

var _ Table = (*Handle)(nil)
