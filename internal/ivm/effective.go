package ivm

import (
	"fmt"

	"idivm/internal/db"
	"idivm/internal/rel"
)

// UpdatePair is a net per-tuple update with full pre- and post-images.
type UpdatePair struct {
	Pre, Post rel.Tuple
}

// NetChange is the compacted net effect of a modification sequence on one
// base table: at most one of insert/delete/update per primary key, so that
// the i-diff instances generated from it are effective (Section 5: "the
// algorithm combines multiple modifications to the same tuple to a single
// modification, so as to generate effective diffs").
type NetChange struct {
	Table   string
	Schema  rel.Schema
	Inserts []rel.Tuple
	Deletes []rel.Tuple
	Updates []UpdatePair
}

// Empty reports whether the change set is empty.
func (n *NetChange) Empty() bool {
	return len(n.Inserts) == 0 && len(n.Deletes) == 0 && len(n.Updates) == 0
}

// CompactLog folds a modification log into per-table net changes,
// combining multiple modifications of the same tuple: insert∘update →
// insert, insert∘delete → nothing, update∘update → merged update,
// update∘delete → delete, delete∘insert → update (or nothing when the
// reinserted tuple equals the deleted one), and no-op updates are dropped.
// Tuples are equal when they are KeyEqual value by value — the equality
// stored tables index under; Same would take Int(1<<53) → Int(1<<53+1)
// or 1 → NaN for a no-op, since it compares numbers through float64.
// Within a table, net changes keep the order in which their keys were first
// logged. The images are the log's own, not copies: a log's images alias
// stored rows, which never change.
func CompactLog(log []db.Modification, schemaOf func(table string) (rel.Schema, error)) (map[string]*NetChange, error) {
	var c compactor
	tables, err := c.compact(log, schemaOf)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*NetChange, len(tables))
	for _, a := range tables {
		if !a.nc.Empty() {
			out[a.nc.Table] = &a.nc
		}
	}
	return out, nil
}

// compactor is CompactLog's state: one accumulator per table it has seen,
// kept with its buffers from one compaction to the next. A System owns one
// and compacts every log of every round with it (diffFeed.add), resetting it
// once a log's instances are populated, so a warm round folds its log into
// buffers the earlier rounds grew. CompactLog runs a fresh one.
type compactor struct {
	tables map[string]*tableAcc
	used   []*tableAcc // the tables of the current compaction, first seen first
	key    []rel.Value // a log entry's primary key, gathered for its digest
	// pre and post are the updates an update schema takes (populate).
	pre, post []rel.Tuple
}

// tableAcc folds one table's log: a slot per primary key in slots, in the
// order keys were first seen, found through chains under the key's digest.
type tableAcc struct {
	keyIdx []int
	slots  []slot
	chains rel.DigestChains // key digest → slot indexes
	// nc is the table's net change, built from slots; nc.Table is set while
	// a compaction uses the accumulator and empty between compactions.
	nc NetChange
}

// slot is the state machine over one tuple's fate since the last
// maintenance.
type slot struct {
	key       rel.Tuple // the image whose primary key files the slot
	pre, post rel.Tuple
	kind      db.ModKind
	present   bool // whether a net change exists
}

// acc returns the accumulator of table for the current compaction, asking
// schemaOf for the table's schema the first time the compaction sees it.
func (c *compactor) acc(table string, schemaOf func(string) (rel.Schema, error)) (*tableAcc, error) {
	a := c.tables[table]
	if a != nil && a.nc.Table != "" {
		return a, nil
	}
	s, err := schemaOf(table)
	if err != nil {
		return nil, err
	}
	if a == nil {
		if c.tables == nil {
			c.tables = make(map[string]*tableAcc)
		}
		a = &tableAcc{}
		c.tables[table] = a
	}
	a.keyIdx, a.nc.Table, a.nc.Schema = s.KeyIndices(), table, s
	c.used = append(c.used, a)
	return a, nil
}

// compact folds log into the accumulators of the tables it touches and
// returns them, first seen first, each with its net change in nc. They are
// the compactor's: valid until reset.
func (c *compactor) compact(log []db.Modification, schemaOf func(string) (rel.Schema, error)) ([]*tableAcc, error) {
	var a *tableAcc
	for _, m := range log {
		if a == nil || a.nc.Table != m.Table {
			var err error
			if a, err = c.acc(m.Table, schemaOf); err != nil {
				return nil, err
			}
		}
		keyRow := m.Pre
		if m.Kind == db.ModInsert {
			keyRow = m.Post
		}
		sl := c.slotOf(a, keyRow)
		switch m.Kind {
		case db.ModInsert:
			switch {
			case !sl.present:
				sl.present, sl.kind, sl.post = true, db.ModInsert, m.Post
			case sl.kind == db.ModDelete:
				// delete ∘ insert = update (pre = originally deleted row)
				if sl.pre.KeyEqual(m.Post) {
					sl.present = false
				} else {
					sl.kind, sl.post = db.ModUpdate, m.Post
					sl.present = true
				}
			default:
				return nil, fmt.Errorf("ivm: insert into %s over live key %s", m.Table, m.Post)
			}
		case db.ModDelete:
			switch {
			case !sl.present:
				sl.present, sl.kind, sl.pre = true, db.ModDelete, m.Pre
			case sl.kind == db.ModInsert:
				sl.present = false // insert ∘ delete = nothing
			case sl.kind == db.ModUpdate:
				sl.kind = db.ModDelete // keep original pre
			default:
				return nil, fmt.Errorf("ivm: double delete in %s of %s", m.Table, m.Pre)
			}
		case db.ModUpdate:
			switch {
			case !sl.present:
				sl.present, sl.kind, sl.pre, sl.post = true, db.ModUpdate, m.Pre, m.Post
			case sl.kind == db.ModInsert:
				sl.post = m.Post
			case sl.kind == db.ModUpdate:
				sl.post = m.Post
			default:
				return nil, fmt.Errorf("ivm: update in %s of deleted tuple %s", m.Table, m.Pre)
			}
		}
	}
	for _, a := range c.used {
		nc := &a.nc
		for i := range a.slots {
			sl := &a.slots[i]
			if !sl.present {
				continue
			}
			switch sl.kind {
			case db.ModInsert:
				nc.Inserts = append(nc.Inserts, sl.post)
			case db.ModDelete:
				nc.Deletes = append(nc.Deletes, sl.pre)
			case db.ModUpdate:
				if !sl.pre.KeyEqual(sl.post) { // else a no-op update
					nc.Updates = append(nc.Updates, UpdatePair{Pre: sl.pre, Post: sl.post})
				}
			}
		}
	}
	return c.used, nil
}

// slotOf returns the slot of row's primary key in a, filing a new one when
// the key is not there yet: the key's chain is walked under its digest and
// each candidate verified with KeyEqual.
func (c *compactor) slotOf(a *tableAcc, row rel.Tuple) *slot {
	c.key = c.key[:0]
	for _, j := range a.keyIdx {
		c.key = append(c.key, row[j])
	}
	d := rel.KeyDigest(c.key)
	for e := a.chains.First(d); e >= 0; e = a.chains.Next(e) {
		if sl := &a.slots[e]; keyEqualAt(sl.key, c.key, a.keyIdx) {
			return sl
		}
	}
	a.chains.Push(d, int32(len(a.slots)))
	a.slots = append(a.slots, slot{key: row})
	return &a.slots[len(a.slots)-1]
}

// keyEqualAt reports whether row's values at keyIdx are KeyEqual to key.
func keyEqualAt(row rel.Tuple, key []rel.Value, keyIdx []int) bool {
	for i, j := range keyIdx {
		if !row[j].KeyEqual(key[i]) {
			return false
		}
	}
	return true
}

// reset ends a compaction: its slots, chains, net changes and the
// instances' scratch are emptied for the next one, their buffers kept within
// the retention bound of rel.Reuse.
func (c *compactor) reset() {
	for _, a := range c.used {
		a.slots = rel.Reuse(a.slots)
		a.chains.Reset()
		a.nc.Inserts, a.nc.Deletes, a.nc.Updates = rel.Reuse(a.nc.Inserts), rel.Reuse(a.nc.Deletes), rel.Reuse(a.nc.Updates)
		a.nc.Table = "" // not in a compaction
	}
	c.used = rel.Reuse(c.used)
	c.pre, c.post = rel.Reuse(c.pre), rel.Reuse(c.post)
}

// PopulateInstances translates a table's net changes into instances of the
// base-table i-diff schemas generated at view definition time (Section 5):
// inserts go to the single insert schema, deletes to the single delete
// schema, and each update goes to every update schema containing at least
// one of the modified attributes. Empty instances are left out. An instance
// is built as columns, the form a round binds, and Rows holds the same rows
// as tuples, built from the columns (Instance.Tuples).
func PopulateInstances(nc *NetChange, schemas []DiffSchema) ([]*Instance, error) {
	rels := make([]rel.Schema, len(schemas))
	for i, ds := range schemas {
		rels[i] = ds.RelSchema()
	}
	var c compactor
	bound, err := c.populate(nc, schemas, rels)
	if err != nil {
		return nil, err
	}
	var out []*Instance
	for i, b := range bound {
		if b != nil {
			inst := &Instance{Schema: schemas[i], bound: b}
			inst.Rows = &rel.Relation{Schema: rels[i], Tuples: inst.Tuples()}
			out = append(out, inst)
		}
	}
	return out, nil
}

// populate is PopulateInstances by position and as columns: out[i] is the
// instance of schemas[i], a batch under the relation schema rels[i]
// (schemas[i].RelSchema(), which the caller computed once), or nil when it
// is empty. Each schema's columns are resolved against the base table's
// schema once, and each column is written from the images in one pass: no
// diff row is built as a tuple.
func (c *compactor) populate(nc *NetChange, schemas []DiffSchema, rels []rel.Schema) ([]*rel.Binding, error) {
	out := make([]*rel.Binding, len(schemas))
	var positions [32]int // every schema's positions, one schema at a time
	for i, ds := range schemas {
		dc, err := resolveDiffCols(ds, nc.Schema, positions[:0])
		if err != nil {
			return nil, err
		}
		// ids, pre and post are the images the ID, pre and post columns come
		// from: IDs from whichever image there is (keys are immutable).
		var ids, pre, post []rel.Tuple
		switch ds.Type {
		case DiffInsert:
			ids, post = nc.Inserts, nc.Inserts
		case DiffDelete:
			ids, pre = nc.Deletes, nc.Deletes
		case DiffUpdate:
			c.pre, c.post = c.pre[:0], c.post[:0]
			for _, up := range nc.Updates {
				if dc.touches(up) {
					c.pre, c.post = append(c.pre, up.Pre), append(c.post, up.Post)
				}
			}
			ids, pre, post = c.post, c.pre, c.post
		}
		if len(ids) == 0 {
			continue
		}
		b := &rel.Batch{Schema: rels[i], Cols: make([]rel.ColVec, 0, len(rels[i].Attrs)), N: len(ids)}
		for _, p := range dc.ids {
			b.Cols = append(b.Cols, column(ids, p))
		}
		for _, p := range dc.pre {
			b.Cols = append(b.Cols, column(pre, p))
		}
		for _, p := range dc.post {
			b.Cols = append(b.Cols, column(post, p))
		}
		out[i] = rel.BindBatch(b)
	}
	return out, nil
}

// column is the column of the images' values at position p.
func column(images []rel.Tuple, p int) rel.ColVec {
	var cb rel.ColBuilder
	cb.Grow(len(images))
	for _, row := range images {
		cb.Append(row[p])
	}
	return cb.Vec()
}

// diffCols is a diff schema's ID, pre and post attributes as positions in
// its base table's schema.
type diffCols struct{ ids, pre, post []int }

// resolveDiffCols resolves ds against the base table's schema, appending the
// positions to buf. An attribute the table lacks is an error, and so is a
// pre attribute of an insert or a post attribute of a delete, which have no
// such image.
func resolveDiffCols(ds DiffSchema, schema rel.Schema, buf []int) (c diffCols, err error) {
	resolve := func(attrs []string, hasImage bool, msg string) []int {
		start := len(buf)
		for _, a := range attrs {
			i := schema.Index(a)
			if (i < 0 || !hasImage) && err == nil {
				err = fmt.Errorf(msg, a, ds.Rel)
			}
			buf = append(buf, i)
		}
		return buf[start:len(buf):len(buf)]
	}
	c.ids = resolve(ds.IDs, true, "ivm: diff ID attr %q not in %s")
	c.pre = resolve(ds.Pre, ds.Type != DiffInsert, "ivm: diff pre attr %q unavailable for %s")
	c.post = resolve(ds.Post, ds.Type != DiffDelete, "ivm: diff post attr %q unavailable for %s")
	return c, err
}

// touches reports whether the update modified (under KeyEqual) at least one
// attribute carried in the schema's post set.
func (c *diffCols) touches(up UpdatePair) bool {
	for _, i := range c.post {
		if !up.Pre[i].KeyEqual(up.Post[i]) {
			return true
		}
	}
	return false
}
