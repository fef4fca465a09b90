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
		if got := c.find(c.rows[p]); got != id {
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

// check walks every chain of the index, which must list want entries.
func (h *hashIndex) check(want int) error {
	if h.exact && (len(h.cols) != 1 || digestMask != ^uint64(0)) {
		return fmt.Errorf("exact over columns %v with digest mask %#x", h.cols, digestMask)
	}
	n, listed := 0, make(map[int32]bool)
	for d, head := range h.heads {
		if head < 0 || int(head) >= len(h.next) {
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
