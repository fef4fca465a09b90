package rel

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// bucket holds the entries of one index key. The map stores buckets by
// pointer so the write path mutates them in place through lookup-only map
// access (m[string(buf)] allocates no key); a key string is allocated only
// when a bucket is created. The first two entries live in the bucket
// itself, so a small bucket is a single allocation.
type bucket struct {
	ids    []int32
	inline [2]int32
}

// hashIndex is an equality index over a fixed attribute set, mapping the
// encoded attribute values to entries: stable row ids (tableCore.posOf
// resolves them) for a table's secondary indexes, positions in undoRows for
// the overlay indexes. Indexes are maintained incrementally across
// mutations so that probe-heavy IVM workloads never pay full rebuilds —
// and because ids are stable, a row the table moves needs no maintenance.
type hashIndex struct {
	attrIdx []int
	buckets map[string]*bucket
	// buf (and buf2, update's second key) is the write path's key scratch:
	// each hook encodes a row's key into it once. Writers hold c.mu
	// exclusively, so one per index is safe; readers never touch it (they
	// encode probe keys into their own buffers).
	buf, buf2 []byte
	scanned   int // bucket entries remove has examined (tests pin it per removed row)
}

// buildHashIndex indexes rows; entry i is ids[i], or i itself when ids is nil.
func buildHashIndex(rows []Tuple, ids []int32, attrIdx []int) *hashIndex {
	h := &hashIndex{attrIdx: attrIdx, buckets: make(map[string]*bucket)}
	for i, r := range rows {
		e := int32(i)
		if ids != nil {
			e = ids[i]
		}
		h.add(r, e)
	}
	return h
}

// get returns the entries under an encoded key; callers must not modify them.
func (h *hashIndex) get(key []byte) []int32 {
	if b := h.buckets[string(key)]; b != nil {
		return b.ids
	}
	return nil
}

// key encodes the row's indexed values into the index's scratch buffer.
func (h *hashIndex) key(row Tuple) []byte {
	h.buf = AppendKey(h.buf[:0], row, h.attrIdx)
	return h.buf
}

// add registers entry e under the row's key.
func (h *hashIndex) add(row Tuple, e int32) { h.addKey(h.key(row), e) }

func (h *hashIndex) addKey(k []byte, e int32) {
	b := h.buckets[string(k)]
	if b == nil {
		b = &bucket{}
		b.ids = b.inline[:0]
		h.buckets[string(k)] = b
	}
	b.ids = append(b.ids, e)
}

// remove unregisters entry e from the row's bucket, dropping the bucket
// with its last entry.
func (h *hashIndex) remove(row Tuple, e int32) { h.removeKey(h.key(row), e) }

// removeKey panics when e is not listed under k: with stable ids a missed
// removal would leave a dead id behind for a later insert to recycle onto an
// unrelated row, so the broken invariant must not survive until a wrong read.
func (h *hashIndex) removeKey(k []byte, e int32) {
	b := h.buckets[string(k)]
	if b != nil {
		for i, x := range b.ids {
			if x != e {
				continue
			}
			h.scanned += i + 1
			last := len(b.ids) - 1
			b.ids[i] = b.ids[last]
			if b.ids = b.ids[:last]; last == 0 {
				delete(h.buckets, string(k))
			}
			return
		}
	}
	panic(fmt.Sprintf("rel: index over columns %v does not list entry %d under key %q", h.attrIdx, e, k))
}

// update moves entry e between buckets if the row's key changed. The
// decision is made on the encoded keys, the very strings the buckets are
// filed under: Value.Same is coarser (it compares numerics through float64,
// so Int(1<<53) and Int(1<<53+1), or NaN and any number, are Same) and
// would leave the entry in the old bucket.
func (h *hashIndex) update(oldRow, newRow Tuple, e int32) {
	h.buf2 = AppendKey(h.buf2[:0], newRow, h.attrIdx)
	if k := h.key(oldRow); !bytes.Equal(k, h.buf2) {
		h.removeKey(k, e)
		h.addKey(h.buf2, e)
	}
}

// covers reports whether the index is over any of the given columns.
func (h *hashIndex) covers(cols []int) bool {
	for _, j := range h.attrIdx {
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
// one in-flight build instead of each paying an O(n) rebuild (which
// matters once partition-parallel kernels probe a cold index from many
// workers at once).
type idxEntry struct {
	sig  string
	once sync.Once
	h    *hashIndex // nil when the build failed
	err  error
}

// indexOnSig returns (building lazily) the post-state secondary index over
// attrs, whose signature the caller precomputed (prepared probes skip the
// per-call strings.Join) and which the table's mutation paths maintain
// incrementally. It also serves the pre-state: an open epoch filters its
// buckets by the dirty bitmap and adds the matches of the overlay index
// over the same attrs (tableCore.buckets), so no index is ever rebuilt
// because an epoch began, advanced or saw its first write. It is never
// asked for the primary-key attributes: byKey serves those (liveIDs).
//
// Callers hold c.mu (read or write). The cache lists are guarded by the
// leaf lock idxMu; builds themselves run inside the entry's once, outside
// idxMu. That is safe against mutation: installs and builds only run under
// the caller's c.mu (read or write), and every mutation path holds
// c.mu.Lock — so a writer can never observe an install or an in-flight
// build, only completed entries, and walks the lists without idxMu.
func (c *tableCore) indexOnSig(attrs []string, sig string) (*hashIndex, error) {
	return c.cachedIndex(&c.secondary, c.rows, c.idOf, &c.idxBuilds, attrs, sig)
}

// undoIndexOnSig returns (building lazily, in O(undo)) the overlay index
// over attrs: a hash index whose bucket entries are positions in undoRows.
// The first pre-state probe of a mutated epoch that needs it builds it;
// from then on touch extends it with every pre-image it sets aside, and
// the epoch's end or advance drops it.
func (c *tableCore) undoIndexOnSig(attrs []string, sig string) (*hashIndex, error) {
	return c.cachedIndex(&c.undoIdx, c.undoRows, nil, nil, attrs, sig)
}

// cachedIndex resolves sig in one of the table's index caches (a handful of
// entries: a linear scan), building the index over rows exactly once
// however many readers hit the cold slot (see idxEntry). builds, when
// non-nil, counts the builds.
func (c *tableCore) cachedIndex(cache *[]*idxEntry, rows []Tuple, ids []int32, builds *int64, attrs []string, sig string) (*hashIndex, error) {
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
		if builds != nil {
			atomic.AddInt64(builds, 1)
		}
		idx, err := c.schema.Indices(attrs)
		if err != nil {
			e.err = err
			return
		}
		e.h = buildHashIndex(rows, ids, idx)
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

func (c *tableCore) indexesAdd(row Tuple, id int32) {
	for _, e := range c.secondary {
		if e.h != nil {
			e.h.add(row, id)
		}
	}
}

// undoIndexesAdd registers the pre-image just appended to undoRows at pos
// with every overlay index built so far this epoch — usually none.
func (c *tableCore) undoIndexesAdd(row Tuple, pos int32) {
	for _, e := range c.undoIdx {
		if e.h != nil {
			e.h.add(row, pos)
		}
	}
}

// indexesRemove unregisters a row from every index but skip, whose bucket
// the caller (DeleteWhere) drops as a whole.
func (c *tableCore) indexesRemove(row Tuple, id int32, skip *hashIndex) {
	for _, e := range c.secondary {
		if e.h != nil && e.h != skip {
			e.h.remove(row, id)
		}
	}
}

// indexesUpdate re-registers a row whose setIdx columns were overwritten;
// an index over none of them cannot be affected.
func (c *tableCore) indexesUpdate(oldRow, newRow Tuple, id int32, setIdx []int) {
	for _, e := range c.secondary {
		if e.h != nil && e.h.covers(setIdx) {
			e.h.update(oldRow, newRow, id)
		}
	}
}
