package rel

import (
	"fmt"
	"sort"
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
//   - writers (Insert/Delete/Update/Begin-/Advance-/EndEpoch) hold mu.Lock;
//     the scheduler serializes apply steps per table, so writer contention
//     is only with readers of *other* states (pre-state probes), which the
//     lock makes safe;
//   - lazy builds (secondary indexes, the undo-overlay indexes, the
//     materialized pre-state) happen under an RLock (readers probing a cold
//     structure), so the caches are additionally guarded by the leaf lock
//     idxMu, and each cache slot is a single-flight entry: many concurrent
//     probes of the same cold index — routine once the partition-parallel
//     kernels fan probes out — build it exactly once.
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
	mu     sync.RWMutex
	name   string
	schema Schema
	keyIdx []int
	keySig string // indexSig(schema.Key): the overlay's by-key index
	rows   []Tuple
	byKey  map[string]int

	idxMu     sync.RWMutex         // guards the cache maps and frozen (not the builds)
	secondary map[string]*idxEntry // post-state secondary indexes, single-flight
	idxBuilds int64                // full-table index builds (atomic; observability/tests)

	inEpoch      bool
	epochMutated bool     // any write since the epoch opened (or last advanced)
	preLen       int      // len(rows) when the epoch opened
	dirty        []uint64 // bitmap over positions; covers preLen once epochMutated
	undoRows     []Tuple  // pre-images of the dirtied positions, in first-touch order
	undoPos      []int    // undoPos[i]: the position undoRows[i] held when the epoch opened
	// undoIdx holds indexes over undoRows (bucket entries index undoRows),
	// built lazily by the first pre-state probe that needs one and from
	// then on extended by the write path, exactly like secondary.
	undoIdx map[string]*idxEntry
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
	return &Table{core: &tableCore{
		name:      name,
		schema:    schema.Clone(),
		keyIdx:    idx,
		keySig:    indexSig(schema.Key),
		byKey:     make(map[string]int),
		secondary: make(map[string]*idxEntry),
	}}, nil
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

// LenPre returns the number of pre-state rows (same as Len outside an epoch).
func (t *Table) LenPre() int {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.stateLen(StatePre)
}

// stateLen is the row count of the requested state; the caller holds c.mu.
func (c *tableCore) stateLen(s State) int {
	if s == StatePre && c.inEpoch {
		return c.preLen
	}
	return len(c.rows)
}

func (c *tableCore) keyOf(row Tuple) string { return KeyOf(row, c.keyIdx) }

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

// Parts reports the number of storage partitions: always 1 — the in-memory
// table is unpartitioned.
func (t *Table) Parts() int { return 1 }

// ScanPart reads partition i of the requested state. With a single
// partition it is exactly Scan; any other index is a caller bug.
func (t *Table) ScanPart(s State, i int) []Tuple {
	if i != 0 {
		panic(fmt.Sprintf("rel: table %q has 1 part, ScanPart(%d)", t.core.name, i))
	}
	return t.Scan(s)
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
	var buf [64]byte
	k := AppendTupleKey(buf[:0], key)
	c := t.core
	c.mu.RLock()
	row, ok := c.get(s, k)
	c.mu.RUnlock()
	return row, ok
}

// get resolves an encoded primary key in the requested state; the caller
// holds c.mu.
func (c *tableCore) get(s State, k []byte) (Tuple, bool) {
	p, ok := c.byKey[string(k)]
	if !c.overlaid(s) {
		if !ok {
			return nil, false
		}
		return c.rows[p], true
	}
	if ok && c.clean(p) {
		return c.rows[p], true
	}
	// Not live at a clean position: updated, deleted or moved this epoch —
	// then its pre-image is in the overlay — or absent from the pre-state.
	if len(c.undoRows) == 0 {
		return nil, false
	}
	ov, err := c.undoIndexOnSig(c.schema.Key, c.keySig)
	if err != nil {
		return nil, false
	}
	if b := ov.buckets[string(k)]; len(b) > 0 {
		return c.undoRows[b[0]], true
	}
	return nil, false
}

// Lookup probes a (lazily built) secondary hash index over the named
// attributes.
func (t *Table) Lookup(s State, attrs []string, vals []Value) ([]Tuple, error) {
	var buf [64]byte
	k := AppendTupleKey(buf[:0], vals)
	t.core.mu.RLock()
	out, err := t.core.probe(s, attrs, indexSig(attrs), k, nil)
	t.core.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = []Tuple{}
	}
	return out, nil
}

// PrepLookup is a reusable secondary-index probe specification: the
// attribute list together with its precomputed index signature. Preparing
// it once hoists the per-call signature work out of probe loops.
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
// out (reusing its capacity) instead of allocating a result slice. keyBuf
// is an optional scratch buffer for the probe key encoding; the (possibly
// grown) buffer is returned for reuse.
func (t *Table) LookupInto(s State, pl PrepLookup, vals []Value, keyBuf []byte, out []Tuple) ([]Tuple, []byte, error) {
	keyBuf = AppendTupleKey(keyBuf[:0], vals)
	t.core.mu.RLock()
	out, err := t.core.probe(s, pl.attrs, pl.sig, keyBuf, out)
	t.core.mu.RUnlock()
	return out, keyBuf, err
}

// buckets resolves key on the index over attrs for state s: live holds
// positions in rows and undo positions in undoRows. The post-state index
// answers both states; for the pre-state of a mutated epoch (overlaid)
// only the clean positions of live count, and the overlay index over the
// same attributes supplies the pre-images. The caller holds c.mu.
func (c *tableCore) buckets(s State, attrs []string, sig string, key []byte) (live, undo []int, overlaid bool, err error) {
	idx, err := c.indexOnSig(attrs, sig)
	if err != nil {
		return nil, nil, false, err
	}
	live = idx.buckets[string(key)]
	if !c.overlaid(s) {
		return live, nil, false, nil
	}
	if len(c.undoRows) > 0 {
		ov, err := c.undoIndexOnSig(attrs, sig)
		if err != nil {
			return nil, nil, false, err
		}
		undo = ov.buckets[string(key)]
	}
	return live, undo, true, nil
}

// probe appends to out the rows of state s whose attrs encode to key. The
// caller holds c.mu.
func (c *tableCore) probe(s State, attrs []string, sig string, key []byte, out []Tuple) ([]Tuple, error) {
	live, undo, overlaid, err := c.buckets(s, attrs, sig, key)
	if err != nil {
		return out, err
	}
	if out == nil && len(live)+len(undo) > 0 {
		out = make([]Tuple, 0, len(live)+len(undo))
	}
	for _, p := range live {
		if !overlaid || c.clean(p) {
			out = append(out, c.rows[p])
		}
	}
	for _, u := range undo {
		out = append(out, c.undoRows[u])
	}
	return out, nil
}

// matchCount is probe that only counts: the exact number of rows of state
// s whose attrs equal vals. The caller holds c.mu.
func (c *tableCore) matchCount(s State, attrs []string, vals []Value) (int, error) {
	var buf [64]byte
	live, undo, overlaid, err := c.buckets(s, attrs, indexSig(attrs), AppendTupleKey(buf[:0], vals))
	if err != nil {
		return 0, err
	}
	if !overlaid {
		return len(live), nil
	}
	return c.countClean(live) + len(undo), nil
}

// IndexCard reports (p, n): how many rows of the requested state match vals
// on the secondary index over attrs, and the state's total row count —
// catalog metadata, the cardinality a planner consults when choosing
// between an index probe (1 lookup + p reads) and a full scan (n reads).
func (t *Table) IndexCard(s State, attrs []string, vals []Value) (p, n int, err error) {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, err = c.matchCount(s, attrs, vals)
	if err != nil {
		return 0, 0, err
	}
	return p, c.stateLen(s), nil
}

// KeyCount is one entry of a key-frequency statistic: a distinct value
// combination of an indexed attribute set together with how many rows of
// the inspected state carry it. Key is the canonical tuple-key encoding of
// Vals (the same encoding AppendTupleKey produces for a probe over the
// same attribute order), so planners can test probe keys against a heavy
// set without re-encoding.
type KeyCount struct {
	Key   string
	Vals  Tuple
	Count int
}

// KeyFreq reports how many rows of the requested state match vals on the
// secondary index over attrs — catalog metadata like IndexCard, but
// without the total row count. The statistic rides the incrementally
// maintained secondary indexes (and, in the pre-state, the undo overlay),
// so it is exact in both states at every instant.
func (t *Table) KeyFreq(s State, attrs []string, vals []Value) (int, error) {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.matchCount(s, attrs, vals)
}

// HeavyKeys reports every distinct value combination over attrs whose
// frequency in the requested state is at least threshold, sorted by the
// canonical key encoding. A threshold below 1 is treated as 1. Like
// IndexCard, this is uncharged catalog metadata: the frequencies are the
// bucket sizes of the incrementally maintained secondary index (less the
// dirty positions, plus the overlay's buckets, in the pre-state of a
// mutated epoch), so the call reads statistics, not tuples.
func (t *Table) HeavyKeys(s State, attrs []string, threshold int) ([]KeyCount, error) {
	if threshold < 1 {
		threshold = 1
	}
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	sig := indexSig(attrs)
	idx, err := c.indexOnSig(attrs, sig)
	if err != nil {
		return nil, err
	}
	var out []KeyCount
	add := func(k string, rep Tuple, n int) {
		vals := make(Tuple, len(idx.attrIdx))
		for i, j := range idx.attrIdx {
			vals[i] = rep[j]
		}
		out = append(out, KeyCount{Key: k, Vals: vals, Count: n})
	}
	// Map order is fine below: results are sorted by encoded key at the end.
	if !c.overlaid(s) {
		for k, b := range idx.buckets {
			if len(b) >= threshold {
				add(k, c.rows[b[0]], len(b))
			}
		}
	} else {
		var undo map[string][]int
		if len(c.undoRows) > 0 {
			ov, err := c.undoIndexOnSig(attrs, sig)
			if err != nil {
				return nil, err
			}
			undo = ov.buckets
		}
		for k, b := range idx.buckets {
			u := undo[k]
			n := c.countClean(b) + len(u)
			if n < threshold {
				continue
			}
			if len(u) > 0 {
				add(k, c.undoRows[u[0]], n)
				continue
			}
			for _, p := range b {
				if c.clean(p) {
					add(k, c.rows[p], n)
					break
				}
			}
		}
		for k, u := range undo {
			if _, live := idx.buckets[k]; !live && len(u) >= threshold {
				add(k, c.undoRows[u[0]], len(u))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Insert adds a row, failing on a primary-key conflict.
func (t *Table) Insert(row Tuple) error {
	c := t.core
	if len(row) != len(c.schema.Attrs) {
		return fmt.Errorf("rel: table %q: tuple width %d != schema width %d", c.name, len(row), len(c.schema.Attrs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keyOf(row)
	if _, dup := c.byKey[k]; dup {
		return fmt.Errorf("rel: table %q: duplicate key %s", c.name, Tuple(row).String())
	}
	c.appendRow(k, row)
	return nil
}

// appendRow stores a clone of row, whose encoded key is k, at the end of
// rows. The new position needs no undo entry: it is either beyond preLen
// or was vacated — and so dirtied — by an earlier removal of this epoch.
func (c *tableCore) appendRow(k string, row Tuple) {
	c.noteWrite()
	pos := len(c.rows)
	c.byKey[k] = pos
	c.rows = append(c.rows, row.Clone())
	c.indexesAdd(c.rows[pos], pos)
}

// MustInsert is Insert that panics on error, for generators and tests.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertIfAbsent inserts the row unless an identical row already exists
// (the APPLY semantics of insert i-diffs, Section 2). It returns an error
// if a row with the same key but different non-key values exists, which
// would be a primary-key violation and indicates a non-effective diff.
func (t *Table) InsertIfAbsent(row Tuple) (inserted bool, err error) {
	c := t.core
	if len(row) != len(c.schema.Attrs) {
		return false, fmt.Errorf("rel: table %q: tuple width %d != schema width %d", c.name, len(row), len(c.schema.Attrs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keyOf(row)
	if i, ok := c.byKey[k]; ok {
		if c.rows[i].Equal(row) {
			return false, nil
		}
		return false, fmt.Errorf("rel: table %q: key conflict inserting %s over %s", c.name, row.String(), c.rows[i].String())
	}
	c.appendRow(k, row)
	return true, nil
}

// DeleteKey removes the row with the given primary-key values if present.
func (t *Table) DeleteKey(key []Value) bool {
	var buf [64]byte
	k := AppendTupleKey(buf[:0], key)
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byKey[string(k)]
	if !ok {
		return false
	}
	c.removeAt(i)
	return true
}

// DeleteWhere removes every row whose attrs equal vals (an ID-subset
// delete, the APPLY semantics of delete i-diffs), returning the removal
// count.
func (t *Table) DeleteWhere(attrs []string, vals []Value) (int, error) {
	return t.DeleteWhereFunc(attrs, vals, nil)
}

// DeleteWhereFunc is DeleteWhere that additionally invokes fn (when
// non-nil) with the full pre-image of every removed row, in removal
// order. The images are captured inside the critical section where they
// are already in hand — no extra probes — and alias stored tuples, which
// are immutable once stored (updates clone). fn must not call back into
// the table. It is how the Δ-script executor records a view's applied
// deletes into the derived modification log that cascaded views consume.
func (t *Table) DeleteWhereFunc(attrs []string, vals []Value, fn func(pre Tuple)) (int, error) {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, err := c.indexOn(attrs)
	if err != nil {
		return 0, err
	}
	positions := idx.get(vals)
	if len(positions) == 0 {
		return 0, nil
	}
	// Collect keys (and pre-images) first: removeAt perturbs positions.
	keys := make([]string, 0, len(positions))
	var pres []Tuple
	if fn != nil {
		pres = make([]Tuple, 0, len(positions))
	}
	for _, p := range positions {
		keys = append(keys, c.keyOf(c.rows[p]))
		if fn != nil {
			pres = append(pres, c.rows[p])
		}
	}
	for _, k := range keys {
		if i, ok := c.byKey[k]; ok {
			c.removeAt(i)
		}
	}
	for _, r := range pres {
		fn(r)
	}
	return len(keys), nil
}

// UpdateWhere updates every row whose attrs equal vals, overwriting the
// setAttrs columns with setVals, and returns the update count. Key
// attributes cannot be updated (they are immutable in the paper's model).
func (t *Table) UpdateWhere(attrs []string, vals []Value, setAttrs []string, setVals []Value) (int, error) {
	return t.UpdateWhereFunc(attrs, vals, setAttrs, setVals, nil)
}

// UpdateWhereFunc is UpdateWhere that additionally invokes fn (when
// non-nil) with the full pre- and post-image of every updated row, in
// update order. Like DeleteWhereFunc, the images come from the critical
// section where the update already holds both tuples (stored tuples are
// immutable, so an update writes a modified clone and the replaced tuple
// is the pre-image); fn must not call back into the table.
func (t *Table) UpdateWhereFunc(attrs []string, vals []Value, setAttrs []string, setVals []Value, fn func(pre, post Tuple)) (int, error) {
	c := t.core
	for _, a := range setAttrs {
		if Contains(c.schema.Key, a) {
			return 0, fmt.Errorf("rel: table %q: cannot update key attribute %q", c.name, a)
		}
	}
	setIdx, err := c.schema.Indices(setAttrs)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, err := c.indexOn(attrs)
	if err != nil {
		return 0, err
	}
	positions := idx.get(vals)
	for _, p := range positions {
		old := c.rows[p]
		nr := old.Clone() // stored tuples are immutable: readers and the undo overlay alias old
		for i, j := range setIdx {
			nr[j] = setVals[i]
		}
		c.touch(p)
		c.rows[p] = nr
		c.indexesUpdate(old, nr, p)
		if fn != nil {
			fn(old, nr)
		}
	}
	return len(positions), nil
}

// UpdateKey updates the single row with the given primary key.
func (t *Table) UpdateKey(key []Value, setAttrs []string, setVals []Value) (bool, error) {
	n, err := t.UpdateWhere(t.core.schema.Key, key, setAttrs, setVals)
	return n > 0, err
}

// removeAt swap-removes the row at position i: the last row moves into the
// hole, so both positions are touched first.
func (c *tableCore) removeAt(i int) {
	last := len(c.rows) - 1
	c.touch(i)
	c.indexesRemove(c.rows[i], i)
	delete(c.byKey, c.keyOf(c.rows[i]))
	if i != last {
		c.touch(last)
		moved := c.rows[last]
		c.rows[i] = moved
		c.byKey[c.keyOf(moved)] = i
		c.indexesMove(moved, last, i)
	}
	c.rows[last] = nil
	c.rows = c.rows[:last]
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
