package storage

import "idivm/internal/rel"

// Handle binds a backend table to a cost counter, implementing the
// access-count cost model of the paper's Section 6 as a decorator with
// Table's method set (only UpdateKey differs: it reports whether a row
// changed, UpdateKeyLogged returns the images — as InsertLogged and
// DeleteKeyLogged do for InsertRow and DeleteRow): backends store, the Handle
// charges. Every consumer above the storage boundary (catalog, evaluators,
// Δ-script executor) holds a *Handle, so each backend is costed by exactly
// one piece of code and access counts are identical across engines by
// construction.
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
//   - InsertIfAbsent, DeleteWhere, UpdateWhere (one i-diff instance per
//     call): one index lookup per diff row probed plus one tuple write
//     per stored row inserted, removed or updated — derived from the two
//     counts the backend returns, so an instance is charged exactly what
//     its rows applied one call at a time would be. A row that finds its
//     stored row present, or conflicts, is probed; validation errors
//     precede every row and charge nothing.
//   - DeleteKey: one index lookup, plus one tuple write when removed.
//     DeleteKeyLogged additionally charges the Get (pre-image) it replaces;
//     InsertLogged charges what Insert does.
//   - UpdateKey: on success, one index lookup plus one tuple write when
//     the row exists. UpdateKeyLogged additionally charges the two Gets
//     (pre- and post-image) it replaces.
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

// SameTable reports whether h and o front one backend table, whatever
// counters they charge: WithCounter derives a new handle over the same table.
func (h *Handle) SameTable(o *Handle) bool { return h.t == o.t }

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

// StateLen implements Table (uncharged catalog statistics).
func (h *Handle) StateLen(s rel.State) int { return h.t.StateLen(s) }

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
	_, err := h.InsertLogged(row)
	return err
}

// InsertLogged is Insert for a caller that logs the modification: it returns
// the stored row, which the table never modifies, and charges what Insert
// does — the one call clones the row once, for the table and the log alike.
func (h *Handle) InsertLogged(row rel.Tuple) (rel.Tuple, error) {
	stored, err := h.t.InsertRow(row)
	if err == nil {
		h.charge(0, 0, 1)
	}
	return stored, err
}

// MustInsert is Insert that panics on error, for generators and tests.
func (h *Handle) MustInsert(vals ...rel.Value) {
	if err := h.Insert(rel.Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertIfAbsent implements Table, charging one index lookup per row probed —
// a row that already exists or conflicts included — plus one write per row
// inserted; nothing for a column map of the wrong width.
func (h *Handle) InsertIfAbsent(b *rel.Batch, src []int, fn func(post rel.Tuple)) (probed, inserted int, err error) {
	probed, inserted, err = h.t.InsertIfAbsent(b, src, fn)
	h.charge(0, int64(probed), int64(inserted))
	return probed, inserted, err
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

// DeleteKeyLogged is DeleteKey for a caller that logs the modification: it
// returns the removed row (nil when there is none) and charges what reading it
// before the delete would — Get, DeleteKey: two lookups, a read and a write,
// or the one lookup of the Get when the key is absent — although the key is
// resolved once.
func (h *Handle) DeleteKeyLogged(key []rel.Value) rel.Tuple {
	pre := h.t.DeleteRow(key)
	if pre == nil {
		h.charge(0, 1, 0)
	} else {
		h.charge(1, 2, 1)
	}
	return pre
}

// DeleteWhere implements Table, charging one index lookup per diff row
// plus one write per removed row; nothing on a validation/index error, which
// precedes every row. The charge is the same with or without fn, which
// observes pre-images the backend already holds, not extra probes.
func (h *Handle) DeleteWhere(attrs []string, b *rel.Batch, cols []int, fn func(pre rel.Tuple)) (probed, deleted int, err error) {
	probed, deleted, err = h.t.DeleteWhere(attrs, b, cols, fn)
	h.charge(0, int64(probed), int64(deleted))
	return probed, deleted, err
}

// UpdateWhere implements Table, charging one index lookup per diff row plus
// one write per updated row, with or without fn like DeleteWhere.
func (h *Handle) UpdateWhere(attrs []string, b *rel.Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post rel.Tuple)) (probed, updated int, err error) {
	probed, updated, err = h.t.UpdateWhere(attrs, b, cols, setAttrs, setCols, fn)
	h.charge(0, int64(probed), int64(updated))
	return probed, updated, err
}

// UpdateKey is Table.UpdateKey without the images, charging one index lookup
// plus one write when the row exists; nothing on an error.
func (h *Handle) UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (bool, error) {
	_, post, err := h.t.UpdateKey(key, setAttrs, setVals)
	if err != nil {
		return false, err
	}
	var w int64
	if post != nil {
		w = 1
	}
	h.charge(0, 1, w)
	return post != nil, nil
}

// UpdateKeyLogged is UpdateKey for a caller that logs the modification: it
// returns the pre- and post-image of the updated row (nil when there is none)
// and charges what reading them around the update would — Get, UpdateKey,
// Get: three lookups, two reads and a write, or the one lookup of the first
// Get when the key is absent — although the images come out of the update's
// own critical section and the key is resolved once.
func (h *Handle) UpdateKeyLogged(key []rel.Value, setAttrs []string, setVals []rel.Value) (pre, post rel.Tuple, err error) {
	if pre, post, err = h.t.UpdateKey(key, setAttrs, setVals); err != nil {
		return nil, nil, err
	}
	if post == nil {
		h.charge(0, 1, 0)
	} else {
		h.charge(2, 3, 1)
	}
	return pre, post, nil
}

// BeginEpoch implements Table (uncharged).
func (h *Handle) BeginEpoch() { h.t.BeginEpoch() }

// AdvanceEpoch implements Table (uncharged).
func (h *Handle) AdvanceEpoch() { h.t.AdvanceEpoch() }

// EndEpoch implements Table (uncharged).
func (h *Handle) EndEpoch() { h.t.EndEpoch() }

// RollbackEpoch implements Table (uncharged).
func (h *Handle) RollbackEpoch() { h.t.RollbackEpoch() }

// InEpoch implements Table.
func (h *Handle) InEpoch() bool { return h.t.InEpoch() }
