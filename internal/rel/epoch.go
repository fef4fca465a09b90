package rel

// Epoch lifecycle and the undo overlay behind the pre-state (see tableCore).

// BeginEpoch freezes the current contents as the pre-state. Subsequent
// mutations affect only the post-state; Scan/Get/Lookup with StatePre keep
// seeing the contents as of this call. Opening is O(1): nothing is copied —
// the pre-state is read from the post-state and the pre-images the write
// path sets aside from here on (Section 4's Input_pre, read "from the
// post-state and the diffs/log").
func (t *Table) BeginEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inEpoch {
		return
	}
	c.inEpoch = true
	c.preLen = len(c.rows)
}

// AdvanceEpoch atomically refreezes the pre-state at the current contents
// — EndEpoch plus BeginEpoch under a single critical section, so a
// concurrent StatePre reader always resolves either the old or the new
// frozen state and never a mix. The serving layer uses it to move readers
// to the next round's state without ever leaving the epoch. It costs
// O(rows written since the epoch opened or last advanced), not O(rows).
func (t *Table) AdvanceEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inEpoch = true
	c.dropOverlay()
	c.preLen = len(c.rows)
}

// RollbackEpoch undoes every write since the epoch opened or last advanced,
// atomically and in O(rows written): the rows the epoch wrote — at dirty
// positions and past preLen — leave every index, each pre-image goes back to
// the position it held, and the table is cut back to preLen. The table stays
// in its epoch with a clean overlay; the pre-state, and a frozen
// materialization of it, are what they were. Outside an epoch it does
// nothing. A restored row may come back under another id, at the tail of
// its index chains.
func (t *Table) RollbackEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.inEpoch || !c.epochMutated {
		return
	}
	for _, p := range c.undoPos {
		if p < len(c.rows) {
			c.unlinkAt(p)
		}
	}
	for p := c.preLen; p < len(c.rows); p++ {
		c.unlinkAt(p)
	}
	if n := c.preLen - len(c.rows); n > 0 { // removals vacated positions below preLen
		c.rows, c.idOf = append(c.rows, make([]Tuple, n)...), append(c.idOf, make([]int32, n)...)
	}
	clear(c.rows[c.preLen:])
	c.rows, c.idOf = c.rows[:c.preLen], c.idOf[:c.preLen]
	for i, p := range c.undoPos {
		row, n := c.undoRows[i], len(c.free)-1
		id := c.free[n]
		c.free = c.free[:n]
		c.posOf[id], c.idOf[p], c.rows[p] = int32(p), id, row
		for _, e := range c.indexes {
			if e.h != nil {
				e.h.add(row, id)
			}
		}
	}
	frozen := c.frozen
	c.dropOverlay()
	c.frozen = frozen
}

// unlinkAt takes the row at position p out of every index and frees its id,
// leaving the position to the caller (RollbackEpoch).
func (c *tableCore) unlinkAt(p int) {
	id := c.idOf[p]
	c.indexesRemove(c.rows[p], id, nil)
	c.posOf[id] = -1
	c.free = append(c.free, id)
}

// EndEpoch discards the pre-state, in O(rows written during the epoch).
func (t *Table) EndEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inEpoch = false
	c.dropOverlay()
	c.frozen = nil
}

// InEpoch reports whether a maintenance epoch is active.
func (t *Table) InEpoch() bool {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.inEpoch
}

// dropOverlay forgets the writes of the epoch: it clears exactly the dirty
// bits that were set, empties the undo list (keeping its capacity, and
// releasing the pre-images) and drops what was derived from it. A frozen
// materialization survives an epoch that saw no write — it still equals
// the contents. The caller holds c.mu exclusively, so no reader is inside
// a lazy build.
func (c *tableCore) dropOverlay() {
	if !c.epochMutated {
		return
	}
	c.epochMutated = false
	for _, p := range c.undoPos {
		c.dirty[p>>6] = 0
	}
	clear(c.undoRows)
	c.undoRows = c.undoRows[:0]
	c.undoPos = c.undoPos[:0]
	c.undoIdx = nil
	c.frozen = nil
}

// noteWrite marks the open epoch (if any) as mutated; every mutation path
// calls it before changing rows. From the first write on, pre-state reads
// go through the overlay, so the bitmap must cover every pre-state
// position; it keeps its size across epochs and only grows with the table.
func (c *tableCore) noteWrite() {
	if !c.inEpoch || c.epochMutated {
		return
	}
	c.epochMutated = true
	if need := (c.preLen + 63) >> 6; need > len(c.dirty) {
		c.dirty = append(c.dirty, make([]uint64, need-len(c.dirty))...)
	}
}

// touch sets aside the pre-image at position p before a write replaces,
// removes or moves the row there. Only the first touch of a pre-state
// position records anything: positions at or beyond preLen hold rows the
// pre-state never had, and a dirty position's pre-image is already saved.
func (c *tableCore) touch(p int) {
	if !c.inEpoch {
		return
	}
	c.noteWrite()
	if p >= c.preLen {
		return
	}
	w, bit := p>>6, uint64(1)<<(uint(p)&63)
	if c.dirty[w]&bit != 0 {
		return
	}
	c.dirty[w] |= bit
	c.undoRows = append(c.undoRows, c.rows[p])
	c.undoPos = append(c.undoPos, p)
	c.undoIndexesAdd(c.rows[p], int32(len(c.undoRows)-1))
}

// overlaid reports whether reads of state s must go through the overlay:
// the pre-state of an epoch that has seen a write. Until the first write
// the two states are identical — same content, same positions — and the
// post-state structures answer both.
func (c *tableCore) overlaid(s State) bool {
	return s == StatePre && c.epochMutated
}

// clean reports whether position p still holds the row it held when the
// epoch opened. Only meaningful while overlaid.
func (c *tableCore) clean(p int) bool {
	return p < c.preLen && c.dirty[p>>6]&(uint64(1)<<(uint(p)&63)) == 0
}

// materializePre builds the pre-state of the open epoch as a fresh slice in
// the row order the epoch opened with: the live rows below preLen, with
// every dirtied position overwritten by its pre-image (positions vacated
// by removals are all dirty). The caller holds c.mu.
func (c *tableCore) materializePre() []Tuple {
	pre := make([]Tuple, c.preLen)
	copy(pre, c.rows)
	for i, p := range c.undoPos {
		pre[p] = c.undoRows[i]
	}
	return pre
}

// preRows returns the epoch's frozen pre-state, materializing it on the
// first call (single-flight, like a cold index build). The slice is never
// written again — later writes go to rows and the undo list, and an
// advance drops the reference rather than reusing the memory — so it is
// safe to hand out and to retain. The caller holds c.mu.
func (c *tableCore) preRows() []Tuple {
	c.idxMu.RLock()
	f := c.frozen
	c.idxMu.RUnlock()
	if f == nil {
		c.idxMu.Lock()
		if c.frozen == nil {
			c.frozen = &frozenPre{}
		}
		f = c.frozen
		c.idxMu.Unlock()
	}
	f.once.Do(func() { f.rows = c.materializePre() })
	return f.rows
}
