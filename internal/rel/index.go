package rel

import (
	"strings"
	"sync"
	"sync/atomic"
)

// hashIndex is an equality index over a fixed attribute set, mapping the
// encoded attribute values to row positions. Indexes are maintained
// incrementally across mutations so that probe-heavy IVM workloads never
// pay full rebuilds.
type hashIndex struct {
	attrIdx []int
	buckets map[string][]int
}

func buildHashIndex(rows []Tuple, attrIdx []int) *hashIndex {
	h := &hashIndex{attrIdx: attrIdx, buckets: make(map[string][]int)}
	for i, r := range rows {
		k := KeyOf(r, attrIdx)
		h.buckets[k] = append(h.buckets[k], i)
	}
	return h
}

func (h *hashIndex) get(vals []Value) []int {
	var buf [64]byte
	return h.buckets[string(AppendTupleKey(buf[:0], vals))]
}

// add registers a row at position pos.
func (h *hashIndex) add(row Tuple, pos int) {
	k := KeyOf(row, h.attrIdx)
	h.buckets[k] = append(h.buckets[k], pos)
}

// remove unregisters the row that was at position pos.
func (h *hashIndex) remove(row Tuple, pos int) {
	k := KeyOf(row, h.attrIdx)
	b := h.buckets[k]
	for i, p := range b {
		if p == pos {
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	if len(b) == 0 {
		delete(h.buckets, k)
	} else {
		h.buckets[k] = b
	}
}

// move re-points the row's entry from one position to another (after a
// swap-remove moved it).
func (h *hashIndex) move(row Tuple, from, to int) {
	k := KeyOf(row, h.attrIdx)
	b := h.buckets[k]
	for i, p := range b {
		if p == from {
			b[i] = to
			return
		}
	}
}

// update moves a row between buckets after its indexed values changed.
func (h *hashIndex) update(oldRow, newRow Tuple, pos int) {
	ok := KeyOf(oldRow, h.attrIdx)
	nk := KeyOf(newRow, h.attrIdx)
	if ok == nk {
		return
	}
	h.remove(oldRow, pos)
	h.buckets[nk] = append(h.buckets[nk], pos)
}

func indexSig(attrs []string) string { return strings.Join(attrs, "\x00") }

// idxEntry is one slot of an index cache: a single-flight cell whose build
// runs exactly once no matter how many readers hit the cold index
// concurrently. Readers install the entry under idxMu, then build outside
// it through once — concurrent probes for the same signature block on the
// one in-flight build instead of each paying an O(n) rebuild (which
// matters once partition-parallel kernels probe a cold index from many
// workers at once).
type idxEntry struct {
	once sync.Once
	h    *hashIndex // nil when the build failed
	err  error
}

// indexOn returns (building lazily) the post-state secondary index over
// attrs, which the table's mutation paths maintain incrementally. It also
// serves the pre-state: an open epoch filters its buckets by the dirty
// bitmap and adds the matches of the overlay index over the same attrs
// (Table.probe), so no index is ever rebuilt because an epoch began,
// advanced or saw its first write.
//
// Callers hold c.mu (read or write). The cache maps are guarded by the
// leaf lock idxMu; builds themselves run inside the entry's once, outside
// idxMu. That is safe against mutation: builds only run under the caller's
// c.mu (read or write), and every mutation path holds c.mu.Lock — so a
// writer can never observe an in-flight build, only completed entries.
func (c *tableCore) indexOn(attrs []string) (*hashIndex, error) {
	return c.indexOnSig(attrs, indexSig(attrs))
}

// indexOnSig is indexOn with the signature precomputed by the caller, so
// prepared probes (Table.LookupInto) skip the per-call strings.Join. Column
// resolution only runs on a cache miss: a hit is a map lookup.
func (c *tableCore) indexOnSig(attrs []string, sig string) (*hashIndex, error) {
	return c.cachedIndex(&c.secondary, c.rows, &c.idxBuilds, attrs, sig)
}

// undoIndexOnSig returns (building lazily, in O(undo)) the overlay index
// over attrs: a hash index whose bucket entries are positions in undoRows.
// The first pre-state probe of a mutated epoch that needs it builds it;
// from then on touch extends it with every pre-image it sets aside, and
// the epoch's end or advance drops it.
func (c *tableCore) undoIndexOnSig(attrs []string, sig string) (*hashIndex, error) {
	return c.cachedIndex(&c.undoIdx, c.undoRows, nil, attrs, sig)
}

// cachedIndex resolves sig in one of the table's index caches, building
// the index over rows exactly once however many readers hit the cold slot
// (see idxEntry). builds, when non-nil, counts the builds.
func (c *tableCore) cachedIndex(cache *map[string]*idxEntry, rows []Tuple, builds *int64, attrs []string, sig string) (*hashIndex, error) {
	c.idxMu.RLock()
	e, ok := (*cache)[sig]
	c.idxMu.RUnlock()
	if !ok {
		c.idxMu.Lock()
		if e, ok = (*cache)[sig]; !ok {
			if *cache == nil {
				*cache = make(map[string]*idxEntry)
			}
			e = &idxEntry{}
			(*cache)[sig] = e
		}
		c.idxMu.Unlock()
	}
	e.once.Do(func() {
		if builds != nil {
			atomic.AddInt64(builds, 1)
		}
		idx, err := c.schema.Indices(attrs)
		if err != nil {
			e.err = err
			return
		}
		e.h = buildHashIndex(rows, idx)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.h, nil
}

// Incremental maintenance hooks called by the table's mutation paths,
// which hold the write lock (so no build is in flight; see indexOn).
// Failed entries carry a nil index and are skipped.

func (c *tableCore) indexesAdd(row Tuple, pos int) {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	for _, e := range c.secondary { // order-free: every index is updated
		if e.h != nil {
			e.h.add(row, pos)
		}
	}
}

// undoIndexesAdd registers the pre-image just appended to undoRows at pos
// with every overlay index built so far this epoch — usually none, and
// the write path then pays a nil check (the cache is only ever installed
// by readers, which the caller's write lock excludes).
func (c *tableCore) undoIndexesAdd(row Tuple, pos int) {
	if c.undoIdx == nil {
		return
	}
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	for _, e := range c.undoIdx { // order-free: every index is updated
		if e.h != nil {
			e.h.add(row, pos)
		}
	}
}

func (c *tableCore) indexesRemove(row Tuple, pos int) {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	for _, e := range c.secondary { // order-free: every index is updated
		if e.h != nil {
			e.h.remove(row, pos)
		}
	}
}

func (c *tableCore) indexesMove(row Tuple, from, to int) {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	for _, e := range c.secondary { // order-free: every index is updated
		if e.h != nil {
			e.h.move(row, from, to)
		}
	}
}

func (c *tableCore) indexesUpdate(oldRow, newRow Tuple, pos int) {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	for _, e := range c.secondary { // order-free: every index is updated
		if e.h != nil {
			e.h.update(oldRow, newRow, pos)
		}
	}
}
