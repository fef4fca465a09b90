package rel

import "fmt"

// NarrowDigests truncates every key digest — of every table, the receiver
// only carries the method — to two bits until the returned function is
// called, so an index has at most four chains and nearly every chain mixes
// keys: reader verification, DeleteWhere's "chain only partly matches" branch
// and head/tail/only-entry unlinks then run on every operation of a test.
// Tables must be created inside the window, and tests that open one must not
// run in parallel. The package's external tests reach it through an interface
// assertion, as epochtest reaches CheckInvariants: ivmlint type-checks them
// against the production files alone.
func (*Table) NarrowDigests() (restore func()) {
	digestMask = 3
	return func() { digestMask = ^uint64(0) }
}

// SqueezeHomes is NarrowDigests one layer down: digests stay distinct, but
// only their top two bits choose a home cell in the digest tables, so every
// table has at most four clusters — one of them wrapping the end of the slice
// once it is long enough — and every probe, insert and backward shift runs
// inside a cluster of unrelated digests.
func (*Table) SqueezeHomes() (restore func()) {
	homeMask = 3 << 62
	return func() { homeMask = ^uint64(0) }
}

// OnChunkGap installs fn as the hook instance-level writes call between two
// chunks, with the table lock released, until the returned function is called.
func (*Table) OnChunkGap(fn func()) (restore func()) {
	chunkGap = fn
	return func() { chunkGap = nil }
}

// ApplyChunk is the number of diff tuples an instance applies per lock hold.
func (*Table) ApplyChunk() int { return applyChunk }

// CheckInvariants verifies the structural invariants of tableCore: idOf and
// posOf are inverse bijections between positions and live ids, every other
// id is on the free list exactly once, and every index — slot 0 is the
// primary key's and the only one over the key — files every live id in
// exactly one chain, the one under its row's digest, with next/prev mutually
// consistent, the head's prev pointing at the tail and no empty chain, and
// only ints under an index that claims to be exact; the primary index
// resolves each row to its own position. The epochtest driver
// calls it after every operation of a program (it finds the method through
// an interface assertion).
func (t *Table) CheckInvariants() error {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.idOf) != len(c.rows) {
		return fmt.Errorf("len(rows)=%d, len(idOf)=%d", len(c.rows), len(c.idOf))
	}
	for p, id := range c.idOf {
		if id < 0 || int(id) >= len(c.posOf) || int(c.posOf[id]) != p {
			return fmt.Errorf("position %d holds id %d, whose posOf does not point back", p, id)
		}
		var key []Value
		for _, j := range c.keyIdx {
			key = append(key, c.rows[p][j])
		}
		if got := c.primary.first(KeyDigest(key), key); got != id {
			return fmt.Errorf("the primary index resolves row %v to id %d; want %d", c.rows[p], got, id)
		}
	}
	if len(c.rows)+len(c.free) != len(c.posOf) {
		return fmt.Errorf("%d live + %d free ids != %d allocated", len(c.rows), len(c.free), len(c.posOf))
	}
	seen := make(map[int32]bool)
	for _, id := range c.free {
		if seen[id] || c.posOf[id] != -1 {
			return fmt.Errorf("free id %d is listed twice or still has position %d", id, c.posOf[id])
		}
		seen[id] = true
	}
	if len(c.indexes) == 0 || c.indexes[0].h != c.primary || c.indexes[0].sig != c.keySig {
		return fmt.Errorf("slot 0 of the index cache is not the primary-key index")
	}
	for i, e := range c.indexes {
		if i > 0 && e.sig == c.keySig {
			return fmt.Errorf("a secondary index duplicates the primary key")
		}
		if e.h == nil {
			continue
		}
		if err := e.h.check(len(c.rows)); err != nil {
			return fmt.Errorf("index %q: %v", e.sig, err)
		}
	}
	for _, e := range c.undoIdx {
		if e.h != nil {
			if err := e.h.check(len(c.undoRows)); err != nil {
				return fmt.Errorf("overlay index %q: %v", e.sig, err)
			}
		}
	}
	return nil
}

// check verifies the digest table: n counts the occupied cells, every stored
// digest is found by probing for it — so no probe sequence crosses an empty
// cell and no digest is stored twice — and the load bound holds.
func (t *digestTable) check() error {
	used := 0
	for i, c := range t.cells {
		if c.head < 0 {
			continue
		}
		if used++; t.find(c.digest) != i {
			return fmt.Errorf("digest %#x in cell %d (home %d) is not found by probing: find = %d", c.digest, i, t.home(c.digest), t.find(c.digest))
		}
	}
	if used != t.n || t.n*4 > len(t.cells)*3 {
		return fmt.Errorf("n = %d with %d of %d cells occupied", t.n, used, len(t.cells))
	}
	return nil
}

// check walks the cells of the digest table and every chain of the index,
// which must list want entries.
func (h *hashIndex) check(want int) error {
	if h.exact && (len(h.cols) != 1 || digestMask != ^uint64(0)) {
		return fmt.Errorf("exact over columns %v with digest mask %#x", h.cols, digestMask)
	}
	if err := h.tab.check(); err != nil {
		return err
	}
	n, listed := 0, make(map[int32]bool)
	for _, cell := range h.tab.cells {
		d, head := cell.digest, cell.head
		if head < 0 {
			continue
		}
		if int(head) >= len(h.next) {
			return fmt.Errorf("digest %#x heads an empty chain (entry %d)", d, head)
		}
		prev := int32(-1)
		for e := head; e >= 0; prev, e = e, h.next[e] {
			if listed[e] || (!h.undo && (int(e) >= len(h.c.posOf) || h.c.posOf[e] < 0)) || (h.undo && int(e) >= len(h.c.undoRows)) {
				return fmt.Errorf("entry %d is dead or listed twice", e)
			}
			listed[e] = true
			if h.exact && h.row(e)[h.cols[0]].Kind != KindInt {
				return fmt.Errorf("exact, but row %v holds no int in column %d", h.row(e), h.cols[0])
			}
			if got := digestCols(h.row(e), h.cols); got != d {
				return fmt.Errorf("row %v is filed under digest %#x, not its own %#x", h.row(e), d, got)
			}
			if e != head && h.prev[e] != prev {
				return fmt.Errorf("prev[%d] = %d, but %d precedes it", e, h.prev[e], prev)
			}
			n++
		}
		if h.prev[head] != prev {
			return fmt.Errorf("prev of head %d is %d, want the tail %d", head, h.prev[head], prev)
		}
	}
	if n != want {
		return fmt.Errorf("%d entries for %d rows", n, want)
	}
	return nil
}

// Applier and the one-row conveniences are epochtest's, repeated here for this
// package's internal tests, which cannot import it (it imports rel).
type Applier interface {
	InsertIfAbsent(b *Batch, src []int, fn func(post Tuple)) (probed, inserted int, err error)
	DeleteWhere(attrs []string, b *Batch, cols []int, fn func(pre Tuple)) (probed, deleted int, err error)
	UpdateWhere(attrs []string, b *Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post Tuple)) (probed, updated int, err error)
}

// Diff is epochtest.Diff: the diff rows as the batch an APPLY statement reads.
func Diff(rows []Tuple) *Batch {
	var attrs []string
	if len(rows) > 0 {
		for j := range rows[0] {
			attrs = append(attrs, fmt.Sprintf("c%d", j))
		}
	}
	return FromTuples(NewSchema(attrs, nil), rows)
}

// InsertRowIfAbsent inserts row, given in the table's attribute order, unless
// an identical row exists.
func InsertRowIfAbsent(t Applier, row Tuple) (inserted bool, err error) {
	_, n, err := t.InsertIfAbsent(Diff([]Tuple{row}), Cols(0, len(row)), nil)
	return n > 0, err
}

// DeleteRowsWhere removes every row whose attrs equal vals.
func DeleteRowsWhere(t Applier, attrs []string, vals []Value, fn func(pre Tuple)) (int, error) {
	_, n, err := t.DeleteWhere(attrs, Diff([]Tuple{vals}), Cols(0, len(vals)), fn)
	return n, err
}

// UpdateRowsWhere overwrites setAttrs with setVals on every row whose attrs
// equal vals.
func UpdateRowsWhere(t Applier, attrs []string, vals []Value, setAttrs []string, setVals []Value, fn func(pre, post Tuple)) (int, error) {
	k, row := len(vals), append(append(make(Tuple, 0, len(vals)+len(setVals)), vals...), setVals...)
	_, n, err := t.UpdateWhere(attrs, Diff([]Tuple{row}), Cols(0, k), setAttrs, Cols(k, len(row)), fn)
	return n, err
}

// Cols returns the column map lo, lo+1, …, hi-1: the map of a diff whose
// columns already are in the order the statement wants.
func Cols(lo, hi int) []int {
	cols := make([]int, hi-lo)
	for i := range cols {
		cols[i] = lo + i
	}
	return cols
}
