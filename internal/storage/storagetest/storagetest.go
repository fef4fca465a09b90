// Package storagetest holds storage engines for tests. New is the in-memory
// engine behind a write budget that all its tables share, so a test can make
// the nth written row fail — in the middle of an APPLY if it falls there —
// and check what the layers above do with the error. Sharded splits every
// table over key-partitioned shards, so a test can run the same plans and
// rounds on a second row order. They are the storage boundary's other
// implementations: the conformance suite in internal/storage runs every
// Table contract on both. Only tests import this package.
package storagetest

import (
	"errors"
	"sync"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ErrInjected is the error of the row an armed Engine fails.
var ErrInjected = errors.New("storagetest: injected storage fault")

// Engine is the in-memory engine with a write budget. The rows it counts are
// the rows of every InsertIfAbsent, DeleteWhere and UpdateWhere instance,
// whether or not they change anything, plus one per Insert (InsertRow) and
// UpdateKey call, across all its tables. It is safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	written int // rows counted since New
	failAt  int // the count of the row that fails; 0 when unarmed
}

// New returns an unarmed engine.
func New() *Engine { return &Engine{} }

// Arm makes the nth row written from now on fail with ErrInjected, once.
// Arm(0) disarms.
func (e *Engine) Arm(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failAt = 0
	if n > 0 {
		e.failAt = e.written + n
	}
}

// Written returns the number of rows counted since New.
func (e *Engine) Written() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.written
}

// take counts the n rows of one write. It returns how many of them to apply
// and whether the row after those fails; rows after a failing one are never
// written, so they are not counted.
func (e *Engine) take(n int) (apply int, fail bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failAt > e.written && e.failAt <= e.written+n {
		apply = e.failAt - e.written - 1
		e.written, e.failAt = e.failAt, 0
		return apply, true
	}
	e.written += n
	return n, false
}

// Create implements storage.Engine.
func (e *Engine) Create(name string, schema rel.Schema) (storage.Table, error) {
	t, err := storage.NewMem().Create(name, schema)
	if err != nil {
		return nil, err
	}
	return &table{Table: t, e: e}, nil
}

// table is a mem table whose writes draw on its engine's budget; reads and
// epoch operations pass through.
type table struct {
	storage.Table
	e *Engine
}

// Insert implements storage.Table.
func (t *table) Insert(row rel.Tuple) error {
	_, err := t.InsertRow(row)
	return err
}

// InsertRow implements storage.Table.
func (t *table) InsertRow(row rel.Tuple) (rel.Tuple, error) {
	if _, fail := t.e.take(1); fail {
		return nil, ErrInjected
	}
	return t.Table.InsertRow(row)
}

// UpdateKey implements storage.Table.
func (t *table) UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (pre, post rel.Tuple, err error) {
	if _, fail := t.e.take(1); fail {
		return nil, nil, ErrInjected
	}
	return t.Table.UpdateKey(key, setAttrs, setVals)
}

// InsertIfAbsent implements storage.Table. An instance the fault falls in
// applies the rows before the failing one and then fails (see injected).
func (t *table) InsertIfAbsent(b *rel.Batch, src []int, fn func(post rel.Tuple)) (probed, inserted int, err error) {
	n, fail := t.e.take(b.N)
	probed, inserted, err = t.Table.InsertIfAbsent(b.Slice(0, n), src, fn)
	return injected(probed, inserted, err, fail)
}

// DeleteWhere implements storage.Table, failing like InsertIfAbsent.
func (t *table) DeleteWhere(attrs []string, b *rel.Batch, cols []int, fn func(pre rel.Tuple)) (probed, deleted int, err error) {
	n, fail := t.e.take(b.N)
	probed, deleted, err = t.Table.DeleteWhere(attrs, b.Slice(0, n), cols, fn)
	return injected(probed, deleted, err, fail)
}

// UpdateWhere implements storage.Table, failing like InsertIfAbsent.
func (t *table) UpdateWhere(attrs []string, b *rel.Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post rel.Tuple)) (probed, updated int, err error) {
	n, fail := t.e.take(b.N)
	probed, updated, err = t.Table.UpdateWhere(attrs, b.Slice(0, n), cols, setAttrs, setCols, fn)
	return injected(probed, updated, err, fail)
}

// injected turns the result of the rows before a failing row into the
// failure, counting that row as probed — what a key conflict in the middle
// of an insert instance returns.
func injected(probed, affected int, err error, fail bool) (int, int, error) {
	if fail && err == nil {
		return probed + 1, affected, ErrInjected
	}
	return probed, affected, err
}
