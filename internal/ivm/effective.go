package ivm

import (
	"fmt"
	"sort"

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
func CompactLog(log []db.Modification, schemaOf func(table string) (rel.Schema, error)) (map[string]*NetChange, error) {
	type slot struct {
		// state machine over the tuple's fate since the last maintenance
		kind    db.ModKind
		present bool // whether a net change exists
		pre     rel.Tuple
		post    rel.Tuple
		order   int
	}
	type tableAcc struct {
		schema rel.Schema
		keyIdx []int
		slots  map[string]*slot
		order  []string
	}

	accs := make(map[string]*tableAcc)
	acc := func(table string) (*tableAcc, error) {
		if a, ok := accs[table]; ok {
			return a, nil
		}
		s, err := schemaOf(table)
		if err != nil {
			return nil, err
		}
		a := &tableAcc{schema: s, keyIdx: s.KeyIndices(), slots: make(map[string]*slot)}
		accs[table] = a
		return a, nil
	}

	for _, m := range log {
		a, err := acc(m.Table)
		if err != nil {
			return nil, err
		}
		var keyRow rel.Tuple
		switch m.Kind {
		case db.ModInsert:
			keyRow = m.Post
		default:
			keyRow = m.Pre
		}
		k := rel.KeyOf(keyRow, a.keyIdx)
		sl, ok := a.slots[k]
		if !ok {
			sl = &slot{}
			a.slots[k] = sl
			a.order = append(a.order, k)
		}
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

	out := make(map[string]*NetChange)
	tables := make([]string, 0, len(accs))
	for table := range accs { //ivmlint:allow maprange
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		a := accs[table]
		nc := &NetChange{Table: table, Schema: a.schema}
		for _, k := range a.order {
			sl := a.slots[k]
			if !sl.present {
				continue
			}
			switch sl.kind {
			case db.ModInsert:
				nc.Inserts = append(nc.Inserts, sl.post.Clone())
			case db.ModDelete:
				nc.Deletes = append(nc.Deletes, sl.pre.Clone())
			case db.ModUpdate:
				if sl.pre.KeyEqual(sl.post) {
					continue // no-op update
				}
				nc.Updates = append(nc.Updates, UpdatePair{Pre: sl.pre.Clone(), Post: sl.post.Clone()})
			}
		}
		if !nc.Empty() {
			out[table] = nc
		}
	}
	return out, nil
}

// PopulateInstances translates a table's net changes into instances of the
// base-table i-diff schemas generated at view definition time (Section 5):
// inserts go to the single insert schema, deletes to the single delete
// schema, and each update goes to every update schema containing at least
// one of the modified attributes.
func PopulateInstances(nc *NetChange, schemas []DiffSchema) ([]*Instance, error) {
	rels := make([]rel.Schema, len(schemas))
	for i, ds := range schemas {
		rels[i] = ds.RelSchema()
	}
	all, err := populate(nc, schemas, rels)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, inst := range all {
		if inst.Len() > 0 {
			out = append(out, inst)
		}
	}
	return out, nil
}

// populate is PopulateInstances by position: out[i] is the instance of
// schemas[i], empty or not, its rows under the relation schema rels[i]
// (schemas[i].RelSchema(), which the caller computed once). Each schema's
// columns are resolved against the base table's schema once, before its
// first row.
func populate(nc *NetChange, schemas []DiffSchema, rels []rel.Schema) ([]*Instance, error) {
	out := make([]*Instance, len(schemas))
	var positions [32]int // every schema's positions, one schema at a time
	for i, ds := range schemas {
		c, err := resolveDiffCols(ds, nc.Schema, positions[:0])
		if err != nil {
			return nil, err
		}
		inst := &Instance{Schema: ds, Rows: rel.NewRelation(rels[i])}
		out[i] = inst
		switch ds.Type {
		case DiffInsert:
			for _, row := range nc.Inserts {
				inst.Rows.Add(c.row(nil, row))
			}
		case DiffDelete:
			for _, row := range nc.Deletes {
				inst.Rows.Add(c.row(row, nil))
			}
		case DiffUpdate:
			for _, up := range nc.Updates {
				if c.touches(up) {
					inst.Rows.Add(c.row(up.Pre, up.Post))
				}
			}
		}
	}
	return out, nil
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

// row builds one diff tuple from the base table's pre/post images. For
// inserts pre is nil; for deletes post is nil. ID values come from whichever
// image is available (keys are immutable).
func (c *diffCols) row(pre, post rel.Tuple) rel.Tuple {
	src := post
	if src == nil {
		src = pre
	}
	row := make(rel.Tuple, 0, len(c.ids)+len(c.pre)+len(c.post))
	for _, i := range c.ids {
		row = append(row, src[i])
	}
	for _, i := range c.pre {
		row = append(row, pre[i])
	}
	for _, i := range c.post {
		row = append(row, post[i])
	}
	return row
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
