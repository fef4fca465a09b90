package rel

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// hashIndex is the one index type of a stored table: its primary key, every
// secondary index and the undo-overlay indexes are instances. It is an
// equality index over a fixed column set that stores no key at all. The
// indexed values of a row are folded into a 64-bit digest (digestCols —
// KeyEqual values fold alike, so the rows whose canonical key encodings are
// equal share a digest, as may the odd pair whose encodings differ), tab
// maps a digest to the first entry of a chain, and the chain is threaded
// through next/prev, which are indexed by entry: a stable row id
// (tableCore.posOf resolves it) for the primary and secondary indexes, a
// position in undoRows for an overlay index. Chains are in insertion order and
//
//	next[tail] == -1,  prev[head] == tail,  prev[next[e]] == e otherwise,
//
// so appending an entry is one probe of tab (the head knows the tail) and
// unlinking an interior entry is two array writes and no probe; only the
// head and the tail of a chain need the digest again. Nothing is
// ever decided on a 64-bit coincidence: every reader and writer compares the
// entry's row with the probe values (matches), so keys that collide merely
// share a chain — except where a collision cannot exist (exact). The cost is
// 8 bytes per row per index and one 16-byte cell per distinct digest
// (digestTable) — no per-key string or bucket object.
type hashIndex struct {
	c    *tableCore
	cols []int
	undo bool        // entries are positions in undoRows, not row ids
	tab  digestTable // digest → first entry of its chain
	next []int32     // entry → successor, -1 at the tail
	prev []int32     // entry → predecessor; the head's is the tail
	// exact: the index is over one column and every row ever registered
	// holds an int there. The digest of a single int is mix, a bijection of
	// its 64 bits (TestMixIsABijection), so two such keys with equal digests
	// are equal: a chain holds one key, and an int probe need not dereference
	// the rows it walks — which is most of a long chain's read cost. The
	// first other value (a string, a float, NULL) clears it for good.
	exact bool
}

// KeyDigest is the digest of a probe key; digestCols(row, cols) equals it
// for every row whose cols are KeyEqual to vals, as does
// Batch.KeyDigestsInto for every batch row. Equal digests decide nothing:
// whoever files entries under them (hashIndex, DigestChains' callers)
// verifies each candidate with Value.KeyEqual.
func KeyDigest(vals []Value) uint64 {
	h := uint64(digestSeed)
	for _, v := range vals {
		h = v.keyDigest(h)
	}
	return h & digestMask
}

func digestCols(row Tuple, cols []int) uint64 {
	h := uint64(digestSeed)
	for _, j := range cols {
		h = row[j].keyDigest(h)
	}
	return h & digestMask
}

// buildIndex indexes the live rows under their ids, or (undo) the overlay's
// pre-images under their positions in undoRows, with the link arrays sized
// up front and the digest table trimmed to its load bound afterwards.
func (c *tableCore) buildIndex(cols []int, undo bool) *hashIndex {
	h := &hashIndex{c: c, cols: cols, undo: undo, exact: len(cols) == 1 && digestMask == ^uint64(0)}
	if undo {
		h.grow(len(c.undoRows))
		for i, r := range c.undoRows {
			h.add(r, int32(i))
		}
	} else {
		h.grow(len(c.posOf))
		for p, r := range c.rows {
			h.add(r, c.idOf[p])
		}
	}
	h.tab.fit()
	return h
}

func (h *hashIndex) grow(n int) {
	if d := n - len(h.next); d > 0 {
		h.next = append(h.next, make([]int32, d)...)
		h.prev = append(h.prev, make([]int32, d)...)
	}
}

// row resolves an entry to the row it stands for.
func (h *hashIndex) row(e int32) Tuple {
	if h.undo {
		return h.c.undoRows[e]
	}
	return h.c.rows[h.c.posOf[e]]
}

// matches reports whether the indexed columns of entry e, which the caller
// took off the chain under vals' digest, are KeyEqual to vals.
func (h *hashIndex) matches(e int32, vals []Value) bool {
	if h.exact && vals[0].Kind == KindInt {
		return true
	}
	row := h.row(e)
	for i, j := range h.cols {
		if !row[j].KeyEqual(vals[i]) {
			return false
		}
	}
	return true
}

// head returns the first entry of the chain under digest d, or -1.
func (h *hashIndex) head(d uint64) int32 {
	if i := h.tab.find(d); i >= 0 {
		return h.tab.cells[i].head
	}
	return -1
}

// chainLen counts the entries filed under digest d: the rows of every key
// with that digest. A nil index has none.
func (h *hashIndex) chainLen(d uint64) (n int) {
	if h != nil {
		for e := h.head(d); e >= 0; e = h.next[e] {
			n++
		}
	}
	return n
}

// first and after iterate the entries whose rows match vals (of digest d),
// in insertion order:
//
//	for e := h.first(d, vals); e >= 0; e = h.after(e, vals) { … }
//
// The loop body must not modify the index.
func (h *hashIndex) first(d uint64, vals []Value) int32 { return h.seek(h.head(d), vals) }
func (h *hashIndex) after(e int32, vals []Value) int32  { return h.seek(h.next[e], vals) }

func (h *hashIndex) seek(e int32, vals []Value) int32 {
	for ; e >= 0; e = h.next[e] {
		if h.matches(e, vals) {
			return e
		}
	}
	return -1
}

// add registers entry e at the tail of its row's chain: one probe.
func (h *hashIndex) add(row Tuple, e int32) {
	d := digestCols(row, h.cols)
	h.link(h.tab.cell(d), d, row, e)
}

// link is add for a caller that already probed: i is tab.cell(d), d the
// digest of row, and nothing touched tab in between.
func (h *hashIndex) link(i int, d uint64, row Tuple, e int32) {
	if h.exact && row[h.cols[0]].Kind != KindInt {
		h.exact = false
	}
	h.grow(int(e) + 1)
	h.next[e] = -1
	head := h.tab.cells[i].head
	if head < 0 {
		h.tab.cells[i], h.prev[e] = dcell{d, e}, e
		h.tab.n++
		return
	}
	tail := h.prev[head]
	h.next[tail], h.prev[e], h.prev[head] = e, tail, e
}

// remove unlinks entry e, registered for row: no probe for an interior entry,
// one for a head or a tail. It panics when the links around e do not list it:
// with stable ids a missed removal would leave a dead id behind for a later
// insert to recycle onto an unrelated row, so the broken invariant must not
// survive until a wrong read.
func (h *hashIndex) remove(row Tuple, e int32) {
	p, n := h.prev[e], h.next[e]
	if n >= 0 && h.next[p] == e && h.prev[n] == e { // interior: p really precedes e
		h.next[p], h.prev[n] = n, p
		return
	}
	i, head := h.tab.find(digestCols(row, h.cols)), int32(-1)
	if i >= 0 {
		head = h.tab.cells[i].head
	}
	switch {
	case head == e && n < 0 && p == e: // the only entry
		h.tab.del(i)
	case head == e && n >= 0 && h.prev[n] == e:
		h.tab.cells[i].head, h.prev[n] = n, p
	case head >= 0 && head != e && n < 0 && h.next[p] == e && h.prev[head] == e: // the tail
		h.next[p], h.prev[head] = -1, p
	default:
		panic(fmt.Sprintf("rel: index over columns %v does not list entry %d for row %v", h.cols, e, row))
	}
}

// update moves entry e to the tail of its new chain if the row's key
// changed. The decision is KeyEqual's, the equivalence the chains are filed
// under: Value.Same is coarser (it compares numerics through float64, so
// Int(1<<53) and Int(1<<53+1), or NaN and any number, are Same) and would
// leave the entry in the old chain.
func (h *hashIndex) update(oldRow, newRow Tuple, e int32) {
	if !sameKey(oldRow, newRow, h.cols) {
		h.remove(oldRow, e)
		h.add(newRow, e)
	}
}

// sameKey reports whether rows a and b are KeyEqual on cols.
func sameKey(a, b Tuple, cols []int) bool {
	for _, j := range cols {
		if !a[j].KeyEqual(b[j]) {
			return false
		}
	}
	return true
}

// covers reports whether the index is over any of the given columns.
func (h *hashIndex) covers(cols []int) bool {
	for _, j := range h.cols {
		if slices.Contains(cols, j) {
			return true
		}
	}
	return false
}

func indexSig(attrs []string) string { return strings.Join(attrs, "\x00") }

// idxEntry is one slot of an index cache: a single-flight cell whose build
// runs exactly once no matter how many readers hit the cold index
// concurrently. Readers install the entry under idxMu, then build outside
// it through once — concurrent probes for the same signature block on the
// one in-flight build instead of each paying an O(n) rebuild (concurrent
// Δ-script steps and snapshot readers probe the same table).
type idxEntry struct {
	sig  string
	once sync.Once
	h    *hashIndex // nil when the build failed
	err  error
}

// indexOnSig returns (building lazily) the post-state index over attrs,
// whose signature the caller precomputed (prepared probes skip the per-call
// strings.Join) and which the table's mutation paths maintain
// incrementally. Slot 0 of the cache is the primary-key index, installed
// with the table, so a request over exactly schema.Key resolves to it and
// no second index over the key is ever built. The index also serves the
// pre-state: an open epoch filters its chains by the dirty bitmap and adds
// the matches of the overlay index over the same attrs (tableCore.probe), so
// no index is ever rebuilt because an epoch began, advanced or saw its
// first write.
//
// Callers hold c.mu (read or write). The cache lists are guarded by the
// leaf lock idxMu; builds themselves run inside the entry's once, outside
// idxMu. That is safe against mutation: installs and builds only run under
// the caller's c.mu (read or write), and every mutation path holds
// c.mu.Lock — so a writer can never observe an install or an in-flight
// build, only completed entries, and walks the lists without idxMu.
func (c *tableCore) indexOnSig(attrs []string, sig string) (*hashIndex, error) {
	return c.cachedIndex(&c.indexes, false, attrs, sig)
}

// undoIndexOnSig returns (building lazily, in O(undo)) the overlay index
// over attrs, whose entries are positions in undoRows. The first pre-state
// probe of a mutated epoch that needs it builds it; from then on touch
// extends it with every pre-image it sets aside, and the epoch's end or
// advance drops it.
func (c *tableCore) undoIndexOnSig(attrs []string, sig string) (*hashIndex, error) {
	return c.cachedIndex(&c.undoIdx, true, attrs, sig)
}

// cachedIndex resolves sig in one of the table's two index caches (a handful
// of entries: a linear scan), building the index exactly once however many
// readers hit the cold slot (see idxEntry).
func (c *tableCore) cachedIndex(cache *[]*idxEntry, undo bool, attrs []string, sig string) (*hashIndex, error) {
	c.idxMu.RLock()
	e := findEntry(*cache, sig)
	c.idxMu.RUnlock()
	if e == nil {
		c.idxMu.Lock()
		if e = findEntry(*cache, sig); e == nil {
			e = &idxEntry{sig: sig}
			*cache = append(*cache, e)
		}
		c.idxMu.Unlock()
	}
	e.once.Do(func() {
		if !undo {
			atomic.AddInt64(&c.idxBuilds, 1)
		}
		cols, err := c.schema.Indices(attrs)
		if err != nil {
			e.err = err
			return
		}
		e.h = c.buildIndex(cols, undo)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.h, nil
}

func findEntry(cache []*idxEntry, sig string) *idxEntry {
	for _, e := range cache {
		if e.sig == sig {
			return e
		}
	}
	return nil
}

// Incremental maintenance hooks called by the table's mutation paths,
// which hold the write lock (so no install or build is in flight and idxMu
// is not needed; see indexOnSig). Failed entries carry a nil index and are
// skipped.

// undoIndexesAdd registers the pre-image just appended to undoRows at pos
// with every overlay index built so far this epoch — usually none.
func (c *tableCore) undoIndexesAdd(row Tuple, pos int32) {
	for _, e := range c.undoIdx {
		if e.h != nil {
			e.h.add(row, pos)
		}
	}
}

// indexesRemove unregisters a row from every index but skip, whose chain
// the caller (DeleteWhere) drops as a whole.
func (c *tableCore) indexesRemove(row Tuple, id int32, skip *hashIndex) {
	for _, e := range c.indexes {
		if e.h != nil && e.h != skip {
			e.h.remove(row, id)
		}
	}
}

// indexesUpdate re-registers a row whose setIdx columns were overwritten;
// an index over none of them — the primary always — cannot be affected.
func (c *tableCore) indexesUpdate(oldRow, newRow Tuple, id int32, setIdx []int) {
	for _, e := range c.indexes {
		if e.h != nil && e.h.covers(setIdx) {
			e.h.update(oldRow, newRow, id)
		}
	}
}
