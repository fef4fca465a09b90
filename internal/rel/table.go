package rel

import (
	"fmt"
	"slices"
	"sync"
)

// State selects which version of a stored table an access refers to during
// a maintenance epoch: the pre-state (before the logged modifications were
// applied) or the post-state (after). Outside an epoch both refer to the
// live data.
type State uint8

// The two table states of deferred IVM.
const (
	StatePost State = iota
	StatePre
)

// String returns "pre" or "post".
func (s State) String() string {
	if s == StatePre {
		return "pre"
	}
	return "post"
}

// tableCore is the shared storage of a table: rows, indexes and epoch
// state. Every access goes through core.mu:
//
//   - readers (Scan/Get/Lookup/Len/Rows/Relation) hold mu.RLock; the
//     Δ-script scheduler may run many of them concurrently;
//   - writers (Insert/Delete/Update/Begin-/Advance-/Rollback-/EndEpoch) hold mu.Lock;
//     the scheduler serializes apply steps per table, so writer contention
//     is only with readers of *other* states (pre-state probes), which the
//     lock makes safe;
//   - lazy installs and builds (secondary indexes, the undo-overlay
//     indexes, the materialized pre-state) happen under an RLock (readers
//     probing a cold structure), so the caches are additionally guarded by
//     the leaf lock idxMu, and each cache slot is a single-flight entry:
//     many concurrent probes of the same cold index — concurrent
//     Δ-script steps, snapshot readers — build it exactly once.
//     Writers never take idxMu: whoever installs or builds holds mu.RLock,
//     which a writer's mu.Lock excludes, so the write hooks walk the cache
//     lists and use the per-table scratch buffers freely.
//
// Rows are stored by position (rows is dense; a removal moves the last row
// into the hole) but referred to by a stable row id: every index chain
// (hashIndex) holds ids, and idOf/posOf translate,
//
//	posOf[idOf[p]] == p    for every position p,
//	idOf[posOf[id]] == id  for every live id,
//
// with the ids of removed rows (posOf[id] == -1) recycled through free. A
// swap-remove therefore patches two array slots for the row it moves and
// touches no index. The primary-key index is slot 0 of indexes, so a request
// over exactly schema.Key resolves to it like any other attribute list.
//
// The pre-state of an epoch is never copied up front. It is kept as an
// undo overlay over the live rows: the first write of the epoch that
// touches a position below preLen appends the row found there (its
// pre-image) to undoRows/undoPos and sets the position's bit in dirty —
// an update touches its position, a swap-remove both the vacated and the
// moved-from position — so at every instant
//
//	pre-state = {rows[p] : p < preLen, p clean} ∪ undoRows
//
// with every pre-state row in exactly one of the two sets. Opening an
// epoch is O(1), closing or advancing it is O(undo), and pre-state probes
// are answered from the incrementally maintained post-state indexes
// filtered by the dirty bitmap plus small indexes over undoRows.
type tableCore struct {
	mu                sync.RWMutex
	name              string
	schema            Schema
	keyIdx            []int
	keySig            string // indexSig(schema.Key): the overlay's by-key index
	rows              []Tuple
	idOf              []int32 // position → row id; len(idOf) == len(rows)
	posOf             []int32 // row id → position, -1 while the id is free
	free              []int32 // removed rows' ids, reused by the next inserts
	posBuf            []int32 // write paths' position scratch (writers hold mu exclusively)
	setBuf            []int   // UpdateKey's SET-column scratch
	valBuf, setValBuf []Value // an instance's probe- and SET-vector scratch

	idxMu     sync.RWMutex // guards the cache lists and frozen against other readers (not the builds)
	primary   *hashIndex   // indexes[0].h
	indexes   []*idxEntry  // post-state indexes (entries are row ids): the primary key's, then the lazily built ones, single-flight
	idxBuilds int64        // full-table index builds (atomic; observability/tests)

	inEpoch      bool
	epochMutated bool     // any write since the epoch opened (or last advanced)
	preLen       int      // len(rows) when the epoch opened
	dirty        []uint64 // bitmap over positions; covers preLen once epochMutated
	undoRows     []Tuple  // pre-images of the dirtied positions, in first-touch order
	undoPos      []int    // undoPos[i]: the position undoRows[i] held when the epoch opened
	// undoIdx holds indexes over undoRows (their entries index undoRows),
	// built lazily by the first pre-state probe that needs one and from
	// then on extended by the write path, exactly like secondary.
	undoIdx []*idxEntry
	frozen  *frozenPre // the materialized pre-state, built by the first whole-state read
}

// frozenPre is the single-flight cell of an epoch's materialized pre-state.
type frozenPre struct {
	once sync.Once
	rows []Tuple
}

// Table is the storage core of the default in-memory engine: a stored
// relation (base table, materialized view, or intermediate cache) with a
// primary-key hash index, lazily built secondary hash indexes, and an
// optional pre-state — an undo overlay, see tableCore — readable during a
// maintenance epoch (deferred IVM).
//
// Table implements pure storage semantics and charges nothing. The
// access-count cost model of the paper's Section 6 lives one layer up, in
// the storage.Handle decorator every consumer above the engine boundary
// goes through.
type Table struct {
	core *tableCore
}

// NewTable creates an empty stored table. The schema must declare a
// non-empty primary key: the paper's setting requires base tables with keys,
// and views/caches are keyed by their inferred ID attributes.
func NewTable(name string, schema Schema) (*Table, error) {
	if len(schema.Key) == 0 {
		return nil, fmt.Errorf("rel: table %q needs a primary key", name)
	}
	idx, err := schema.Indices(schema.Key)
	if err != nil {
		return nil, err
	}
	c := &tableCore{name: name, schema: schema.Clone(), keyIdx: idx, keySig: indexSig(schema.Key)}
	c.primary = c.buildIndex(idx, false)
	e := &idxEntry{sig: c.keySig, h: c.primary}
	e.once.Do(func() {}) // built
	c.indexes = []*idxEntry{e}
	return &Table{core: c}, nil
}

// MustNewTable is NewTable that panics on error, for generators and tests.
func MustNewTable(name string, schema Schema) *Table {
	t, err := NewTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.core.name }

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.core.schema }

// Len returns the number of live (post-state) rows.
func (t *Table) Len() int {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return len(t.core.rows)
}

// stateLen is the row count of the requested state; the caller holds c.mu.
func (c *tableCore) stateLen(s State) int {
	if s == StatePre && c.inEpoch {
		return c.preLen
	}
	return len(c.rows)
}

// stateRows returns every tuple of the requested state: the live rows, or —
// for the pre-state of an open epoch — the epoch's frozen materialization
// (see preRows), never an alias of live storage.
func (c *tableCore) stateRows(s State) []Tuple {
	if s == StatePre && c.inEpoch {
		return c.preRows()
	}
	return c.rows
}

// Rows returns the raw tuples of the requested state. It exists for
// verification, snapshotting and test oracles. Callers must not mutate
// the tuples, and —
// when other goroutines may write the table — must not retain a post-state
// slice across a mutation.
func (t *Table) Rows(s State) []Tuple {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.stateRows(s)
}

// Scan reads every tuple of the requested state. Callers must not mutate
// the returned tuples. A post-state result aliases table storage; the
// Δ-script DAG guarantees no concurrent writer exists for the state being
// read (post-state reads are ordered after all applies). The pre-state
// result of an open epoch is a frozen slice, materialized once per epoch
// by the first whole-state read, that no later write touches: callers may
// retain it across writes, rounds and epoch advances.
func (t *Table) Scan(s State) []Tuple {
	t.core.mu.RLock()
	rows := t.core.stateRows(s)
	t.core.mu.RUnlock()
	return rows
}

// Relation materializes the requested state as a Relation (snapshot
// utility).
func (t *Table) Relation(s State) *Relation {
	c := t.core
	r := NewRelation(c.schema)
	c.mu.RLock()
	if s == StatePre && c.inEpoch {
		r.Tuples = c.materializePre()
	} else {
		r.Tuples = append(r.Tuples, c.rows...)
	}
	c.mu.RUnlock()
	return r
}

// Get fetches the row with the given primary-key values.
func (t *Table) Get(s State, key []Value) (Tuple, bool) {
	c := t.core
	if len(key) != len(c.keyIdx) {
		return nil, false
	}
	c.mu.RLock()
	row, ok := c.get(s, key)
	c.mu.RUnlock()
	return row, ok
}

// get resolves a primary key in the requested state; the caller holds c.mu.
func (c *tableCore) get(s State, key []Value) (Tuple, bool) {
	overlaid, d := c.overlaid(s), KeyDigest(key)
	if id := c.primary.first(d, key); id >= 0 {
		if p := int(c.posOf[id]); !overlaid || c.clean(p) {
			return c.rows[p], true
		}
	}
	// Not live at a clean position: updated, deleted or moved this epoch —
	// then its pre-image is in the overlay — or absent from the state.
	if overlaid && len(c.undoRows) > 0 {
		if ov, err := c.undoIndexOnSig(c.schema.Key, c.keySig); err == nil {
			if u := ov.first(d, key); u >= 0 {
				return c.undoRows[u], true
			}
		}
	}
	return nil, false
}

// Lookup probes a (lazily built) hash index over the named attributes.
func (t *Table) Lookup(s State, attrs []string, vals []Value) ([]Tuple, error) {
	return t.LookupInto(s, PrepLookup{attrs: attrs, sig: indexSig(attrs)}, vals, nil)
}

// PrepLookup is a reusable index probe specification: the attribute list
// together with its precomputed index signature. Preparing it once hoists
// the per-call signature work out of probe loops.
type PrepLookup struct {
	attrs []string
	sig   string
}

// PrepareLookup builds a prepared probe over the named attributes.
func PrepareLookup(attrs []string) PrepLookup {
	return PrepLookup{attrs: append([]string(nil), attrs...), sig: indexSig(attrs)}
}

// Attrs returns the probe's attribute list.
func (p PrepLookup) Attrs() []string { return p.attrs }

// LookupInto is Lookup through a prepared probe, appending the matches to
// out (reusing its capacity) instead of allocating a result slice; a nil out
// is allocated once, at the size of the probed chains.
func (t *Table) LookupInto(s State, pl PrepLookup, vals []Value, out []Tuple) ([]Tuple, error) {
	t.core.mu.RLock()
	out, _, err := t.core.probe(s, pl.attrs, pl.sig, vals, out, true)
	t.core.mu.RUnlock()
	return out, err
}

// indexFor returns the post-state index over attrs (indexOnSig) for a probe
// with n values, which must be one per attribute.
func (c *tableCore) indexFor(attrs []string, sig string, n int) (*hashIndex, error) {
	if n != len(attrs) {
		return nil, fmt.Errorf("rel: table %q: %d values for attributes %v", c.name, n, attrs)
	}
	return c.indexOnSig(attrs, sig)
}

// probe counts the rows of state s whose attrs (with signature sig) are
// KeyEqual to vals and, when collect is set, appends them to out. The
// post-state index answers both states; for the pre-state of a mutated epoch
// (overlaid) only its entries at clean positions count, and the overlay
// index over the same attributes supplies the pre-images. The caller holds
// c.mu.
func (c *tableCore) probe(s State, attrs []string, sig string, vals []Value, out []Tuple, collect bool) ([]Tuple, int, error) {
	idx, err := c.indexFor(attrs, sig, len(vals))
	if err != nil {
		return out, 0, err
	}
	n, d, overlaid := 0, KeyDigest(vals), c.overlaid(s)
	var ov *hashIndex
	if overlaid && len(c.undoRows) > 0 {
		if ov, err = c.undoIndexOnSig(attrs, sig); err != nil {
			return out, 0, err
		}
	}
	if collect && out == nil { // an upper bound, exact unless the epoch dirtied matches or digests collide
		out = make([]Tuple, 0, idx.chainLen(d)+ov.chainLen(d))
	}
	for id := idx.first(d, vals); id >= 0; id = idx.after(id, vals) {
		if p := int(c.posOf[id]); !overlaid || c.clean(p) {
			if n++; collect {
				out = append(out, c.rows[p])
			}
		}
	}
	if ov != nil {
		for u := ov.first(d, vals); u >= 0; u = ov.after(u, vals) {
			if n++; collect {
				out = append(out, c.undoRows[u])
			}
		}
	}
	return out, n, nil
}

// StateLen is the row count of the requested state: IndexCard's n, without
// a probe.
func (t *Table) StateLen(s State) int {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stateLen(s)
}

// IndexCard reports (p, n): how many rows of the requested state match vals
// on the secondary index over attrs, and the state's total row count —
// catalog metadata, the cardinality a planner consults when choosing
// between an index probe (1 lookup + p reads) and a full scan (n reads).
func (t *Table) IndexCard(s State, attrs []string, vals []Value) (p, n int, err error) {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, p, err = c.probe(s, attrs, indexSig(attrs), vals, nil, false)
	if err != nil {
		return 0, 0, err
	}
	return p, c.stateLen(s), nil
}

// Insert adds a row, failing on a primary-key conflict.
func (t *Table) Insert(row Tuple) error {
	_, err := t.InsertRow(row)
	return err
}

// InsertRow is Insert returning the stored row: the table's own clone of row,
// which it never modifies, so a logging caller may keep it.
func (t *Table) InsertRow(row Tuple) (stored Tuple, err error) {
	c := t.core
	if len(row) != len(c.schema.Attrs) {
		return nil, fmt.Errorf("rel: table %q: tuple width %d != schema width %d", c.name, len(row), len(c.schema.Attrs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, d, id := c.locate(gather(&c.valBuf, row, c.keyIdx))
	if id >= 0 {
		return nil, fmt.Errorf("rel: table %q: duplicate key %s", c.name, Tuple(row).String())
	}
	stored = row.Clone()
	c.store(stored, cell, d)
	return stored, nil
}

// locate resolves a primary key with one probe: its digest, its cell in the
// primary index — made room for, so store can file a new chain there without
// probing again — and the live row's id, or -1.
func (c *tableCore) locate(key []Value) (cell int, d uint64, id int32) {
	h := c.primary
	d = KeyDigest(key)
	cell = h.tab.cell(d)
	for id = h.tab.cells[cell].head; id >= 0; id = h.next[id] {
		if h.matches(id, key) {
			return cell, d, id
		}
	}
	return cell, d, -1
}

// store appends stored, the table's from here on, under a recycled (or else
// fresh) id and registers it with every index — the primary through the cell
// and digest locate found for its key. The new position needs no undo entry:
// it is either beyond preLen or was vacated — and so dirtied — by an earlier
// removal of this epoch, which is also why a recycled id can never show up in
// a pre-state probe.
func (c *tableCore) store(stored Tuple, cell int, d uint64) {
	c.noteWrite()
	var id int32
	if n := len(c.free); n > 0 {
		id, c.free = c.free[n-1], c.free[:n-1]
	} else {
		id = int32(len(c.posOf))
		c.posOf = append(c.posOf, 0)
	}
	c.posOf[id] = int32(len(c.rows))
	c.idOf = append(c.idOf, id)
	c.rows = append(c.rows, stored)
	c.primary.link(cell, d, stored, id)
	for _, e := range c.indexes[1:] {
		if e.h != nil {
			e.h.add(stored, id)
		}
	}
}

// MustInsert is Insert that panics on error, for generators and tests.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// The three APPLY statements of Section 2 are set-at-a-time, like the
// paper's: one call applies one i-diff instance. b holds the diff's rows as
// columns, applied in row order, and the column maps say which of b's columns
// hold the statement's values. A statement reads only those: a delete or
// update gathers its ID (and SET) values of one row at a time into a scratch
// vector, and an insert builds the row it stores straight from the columns,
// so no diff row is ever built as a tuple. Each returns how many diff rows it
// probed — those whose index probe ran, what storage.Handle charges lookups
// by — and how many stored rows it affected. Validation fails before any row;
// a key conflict, the one failure that strikes mid-instance, leaves the rows
// before it applied and counts the conflicting one as probed. The image
// callbacks (when non-nil) run in apply order inside the critical section,
// where the full images are in hand; the images alias stored tuples,
// immutable once stored, and fn must not call back into the table.
//
// An instance takes the write lock once per applyChunk diff rows (or rows they
// affect) — not per row, and not once for all: concurrent pre-state readers
// wait for at most one chunk (or one DeleteWhere key, whatever its bucket
// holds), as they did when every tuple was its own call. Measured on
// feed_serving (DESIGN.md §9): 1 costs a fifth of the apply phase in lock
// traffic, 8 to 128 cost the same, and reader latency grows with the chunk.
const applyChunk = 16

// chunkGap (tests only) runs between two chunks, while the lock is released.
var chunkGap func()

// chunked applies diff rows 0..n-1 in order, each chunk under one hold of
// c.mu. apply reports how many stored rows diff row i affected: a chunk ends
// once it has applied applyChunk diff rows or stored rows, so a delete of
// heavy keys releases the lock after every key, like the per-row calls it
// replaces.
func (c *tableCore) chunked(n int, apply func(i int) (rows int, err error)) (err error) {
	for i := 0; i < n && err == nil; {
		if i > 0 && chunkGap != nil {
			chunkGap()
		}
		func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			for budget := applyChunk; budget > 0 && i < n && err == nil; i++ {
				var rows int
				rows, err = apply(i)
				budget -= max(rows, 1)
			}
		}()
	}
	return err
}

// InsertIfAbsent stores each diff row's src columns — the table's
// attributes, in order — unless an identical row exists; a row with the same
// key and other values is a primary-key violation, a non-effective diff. fn
// sees each stored row.
func (t *Table) InsertIfAbsent(b *Batch, src []int, fn func(post Tuple)) (probed, inserted int, err error) {
	c := t.core
	if len(src) != len(c.schema.Attrs) {
		return 0, 0, fmt.Errorf("rel: table %q: tuple width %d != schema width %d", c.name, len(src), len(c.schema.Attrs))
	}
	keySrc := make([]int, len(c.keyIdx))
	for k, j := range c.keyIdx {
		keySrc[k] = src[j]
	}
	err = c.chunked(b.N, func(i int) (int, error) {
		probed++
		cell, d, id := c.locate(gatherRow(&c.valBuf, b, i, keySrc))
		if id < 0 {
			stored := make(Tuple, len(src))
			for k, j := range src {
				stored[k] = b.Cols[j].Value(i)
			}
			c.store(stored, cell, d)
			if inserted++; fn != nil {
				fn(stored)
			}
			return 1, nil
		}
		// Identical means KeyEqual column by column, the equivalence the key
		// was just resolved under; Tuple.Equal is coarser (see hashIndex.update).
		old := c.rows[c.posOf[id]]
		for k, j := range src {
			if !old[k].KeyEqual(b.Cols[j].Value(i)) {
				return 0, fmt.Errorf("rel: table %q: key conflict inserting %s over %s", c.name, b.Row(i, nil).String(), old.String())
			}
		}
		return 0, nil
	})
	return probed, inserted, err
}

// DeleteKey removes the row with the given primary-key values if present.
func (t *Table) DeleteKey(key []Value) bool { return t.DeleteRow(key) != nil }

// DeleteRow is DeleteKey returning the removed row (nil when there is none),
// resolved by the delete's own probe: a logging caller needs no read first.
func (t *Table) DeleteRow(key []Value) (pre Tuple) {
	c := t.core
	if len(key) != len(c.keyIdx) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.primary.first(KeyDigest(key), key)
	if id < 0 {
		return nil
	}
	p := int(c.posOf[id])
	pre = c.rows[p]
	c.removeAt(p, nil)
	return pre
}

// DeleteWhere removes every row whose attrs equal a diff row's cols; fn sees
// their pre-images in index order. Each key is deleted set-at-a-time: its chain is resolved
// once and — unless a colliding key shares it — dropped from its index as a
// whole, and the rows go in descending position order — a swap-remove then
// only ever moves a row from outside the set, so the resolved positions stay
// valid without re-probing anything.
func (t *Table) DeleteWhere(attrs []string, b *Batch, cols []int, fn func(pre Tuple)) (probed, deleted int, err error) {
	c, sig := t.core, indexSig(attrs)
	var idx *hashIndex
	err = c.chunked(b.N, func(i int) (n int, err error) {
		if idx == nil { // resolved once per instance: an index, once built, stays
			if idx, err = c.indexFor(attrs, sig, len(cols)); err != nil {
				return 0, err
			}
		}
		pos, cell, whole := c.writeSet(idx, gatherRow(&c.valBuf, b, i, cols))
		if probed++; len(pos) == 0 {
			return 0, nil
		}
		if fn != nil {
			for _, p := range pos {
				fn(c.rows[p])
			}
		}
		skip := idx
		if whole {
			idx.tab.del(cell)
		} else {
			skip = nil // unlink the rows one by one, like from every other index
		}
		slices.Sort(pos)
		for k := len(pos) - 1; k >= 0; k-- {
			c.removeAt(int(pos[k]), skip)
		}
		deleted += len(pos)
		return len(pos), nil
	})
	return probed, deleted, err
}

// gather copies row's cols into *buf, a scratch of the writer holding c.mu.
func gather(buf *[]Value, row Tuple, cols []int) []Value {
	vals := (*buf)[:0]
	for _, j := range cols {
		vals = append(vals, row[j])
	}
	*buf = vals
	return vals
}

// gatherRow copies the values of b's row i in cols into *buf, like gather.
func gatherRow(buf *[]Value, b *Batch, i int, cols []int) []Value {
	vals := (*buf)[:0]
	for _, j := range cols {
		vals = append(vals, b.Cols[j].Value(i))
	}
	*buf = vals
	return vals
}

// writeSet resolves the positions of the live rows idx files under vals — in
// index order, in the writer's position scratch —, the cell of their chain,
// and whether they are the whole chain.
func (c *tableCore) writeSet(idx *hashIndex, vals []Value) (pos []int32, cell int, whole bool) {
	pos, whole, cell = c.posBuf[:0], true, idx.tab.find(KeyDigest(vals))
	if cell >= 0 {
		for id := idx.tab.cells[cell].head; id >= 0; id = idx.next[id] {
			if idx.matches(id, vals) {
				pos = append(pos, c.posOf[id])
			} else {
				whole = false
			}
		}
	}
	c.posBuf = pos
	return pos, cell, whole
}

// UpdateWhere overwrites setAttrs with a diff row's setCols on every row
// whose attrs equal its cols. Key attributes are immutable; an update writes
// a modified clone, so the replaced tuple is the pre-image fn sees.
func (t *Table) UpdateWhere(attrs []string, b *Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post Tuple)) (probed, updated int, err error) {
	c, sig := t.core, indexSig(attrs)
	setIdx, err := c.setColumns(nil, setAttrs)
	if err != nil {
		return 0, 0, err
	}
	if len(setCols) != len(setIdx) {
		return 0, 0, fmt.Errorf("rel: table %q: %d values for SET attributes %v", c.name, len(setCols), setAttrs)
	}
	var idx *hashIndex
	err = c.chunked(b.N, func(i int) (n int, err error) {
		if idx == nil {
			if idx, err = c.indexFor(attrs, sig, len(cols)); err != nil {
				return 0, err
			}
		}
		vals := gatherRow(&c.valBuf, b, i, cols)
		n = c.updateMatching(idx, vals, setIdx, gatherRow(&c.setValBuf, b, i, setCols), fn)
		probed, updated = probed+1, updated+n
		return n, nil
	})
	return probed, updated, err
}

// setColumns appends the SET attributes' columns to buf, refusing key attributes.
func (c *tableCore) setColumns(buf []int, setAttrs []string) ([]int, error) {
	for _, a := range setAttrs {
		if Contains(c.schema.Key, a) {
			return nil, fmt.Errorf("rel: table %q: cannot update key attribute %q", c.name, a)
		}
	}
	return c.schema.AppendIndices(buf, setAttrs)
}

// updateMatching overwrites columns setIdx with setVals on every row idx files
// under vals; the caller holds c.mu exclusively.
func (c *tableCore) updateMatching(idx *hashIndex, vals []Value, setIdx []int, setVals []Value, fn func(pre, post Tuple)) int {
	positions, _, _ := c.writeSet(idx, vals)
	for _, p := range positions {
		old := c.rows[p]
		nr := old.Clone() // stored tuples are immutable: readers and the undo overlay alias old
		for i, j := range setIdx {
			nr[j] = setVals[i]
		}
		c.touch(int(p))
		c.rows[p] = nr
		c.indexesUpdate(old, nr, c.idOf[p], setIdx)
		if fn != nil {
			fn(old, nr)
		}
	}
	return len(positions)
}

// UpdateKey updates the row with the given primary key and returns its pre-
// and post-image (nil when there is none) from the update's critical section:
// a logging caller needs no read before or after.
func (t *Table) UpdateKey(key []Value, setAttrs []string, setVals []Value) (pre, post Tuple, err error) {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.setBuf, err = c.setColumns(c.setBuf[:0], setAttrs); err != nil {
		return nil, nil, err
	}
	if _, err = c.indexFor(c.schema.Key, c.keySig, len(key)); err != nil {
		return nil, nil, err
	}
	c.updateMatching(c.primary, key, c.setBuf, setVals, func(o, n Tuple) { pre, post = o, n })
	return pre, post, nil
}

// removeAt swap-removes the row at position p: the last row moves into the
// hole, so both positions are touched first. The moved row keeps its id —
// only its two translation slots change — and the removed row's id goes to
// the free list. skip is the index whose chain the caller already dropped.
func (c *tableCore) removeAt(p int, skip *hashIndex) {
	last := len(c.rows) - 1
	c.touch(p)
	row, id := c.rows[p], c.idOf[p]
	c.indexesRemove(row, id, skip)
	c.posOf[id] = -1
	c.free = append(c.free, id)
	if p != last {
		c.touch(last)
		moved := c.idOf[last]
		c.rows[p], c.idOf[p] = c.rows[last], moved
		c.posOf[moved] = int32(p)
	}
	c.rows[last] = nil
	c.rows, c.idOf = c.rows[:last], c.idOf[:last]
}

// Clone returns an independent deep copy of the table's post-state (no
// epoch state).
func (t *Table) Clone() *Table {
	c := MustNewTable(t.core.name, t.core.schema)
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	for _, r := range t.core.rows {
		if err := c.Insert(r); err != nil {
			panic(err)
		}
	}
	return c
}
