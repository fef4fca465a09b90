// Package db provides the catalog and modification log of idIVM: a set of
// named stored tables (base tables, materialized views and caches) and a
// trigger-style modification logger, layered over a storage.Engine.
//
// Storage itself — rows, indexes, epoch pre-states — lives
// behind the engine boundary (internal/storage); the catalog only decides
// *when* epochs move. A logged table enters its epoch when logging is
// enabled on it and never leaves it; ResetLog, the end of a maintenance
// round, advances every epoch, so the pre-state is always the state the
// views were last consistent with (Section 3 of the paper). Base-table
// modifications are applied eagerly, as in a live DBMS.
package db

import (
	"fmt"
	"sync"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ModKind classifies a logged modification.
type ModKind uint8

// The three modification kinds.
const (
	ModInsert ModKind = iota
	ModDelete
	ModUpdate
)

// String returns "+", "-" or "u".
func (k ModKind) String() string {
	switch k {
	case ModInsert:
		return "+"
	case ModDelete:
		return "-"
	default:
		return "u"
	}
}

// Modification is one logged base-table change with full pre/post images,
// as a trigger-based logger would capture (Section 5).
type Modification struct {
	Kind  ModKind
	Table string
	Pre   rel.Tuple // full pre-image (delete, update)
	Post  rel.Tuple // full post-image (insert, update)
}

// Database is the catalog: named stored tables plus the modification log,
// over a storage.Engine that allocates the tables themselves. Every table
// is held as a *storage.Handle charging the database-wide counter. It
// implements algebra.Env (with no relation bindings; the IVM executor
// layers bindings on top).
//
// Concurrency contract: base-table modifications (Insert/Delete/Update,
// which append to the log) are single-writer operations
// issued between maintenance rounds — the serving layer's group-commit
// dispatcher is that writer when one is attached. During a maintenance
// round the catalog and log are read-only, so the parallel Δ-script
// executor may resolve tables and compact the log from many goroutines;
// per-row thread-safety lives in the storage backend, and cost attribution
// is sharded via storage.Handle.WithCounter with MergeCounter folding the
// shards back here.
//
// The catalog maps themselves (tables/order/logging) are guarded by mu so
// that epoch-pinned snapshot readers may resolve handles and schemas
// concurrently with catalog mutations (view registration creates tables).
// The modification log and the counter stay single-writer: they are only
// touched by the modification/maintenance path.
type Database struct {
	engine  storage.Engine
	mu      sync.RWMutex // guards tables, order, logging, derivedOn
	tables  map[string]*storage.Handle
	order   []string
	counter rel.CostCounter
	log     []Modification
	logging map[string]bool // tables whose changes are logged (base tables of views)

	// derivedOn marks materialized views whose applied i-diffs are recorded
	// as per-view derived modification logs — the "log" a cascaded
	// (view-over-view) consumer compacts exactly like a trigger log on a
	// base table. The IVM system enables it for every view some other view
	// reads as a source. The log slices themselves live in derived, guarded
	// separately: parallel Δ-script executors append from pool goroutines
	// while the catalog maps stay read-only.
	derivedOn map[string]bool
	derivedMu sync.Mutex
	derived   map[string][]Modification
}

// New creates an empty database on the in-memory engine.
func New() *Database {
	return NewWith(storage.NewMem())
}

// NewWith creates an empty database on the given storage engine; tests use
// it to run a database on internal/storage/storagetest's engines.
func NewWith(e storage.Engine) *Database {
	return &Database{engine: e, tables: make(map[string]*storage.Handle), logging: make(map[string]bool),
		derivedOn: make(map[string]bool), derived: make(map[string][]Modification)}
}

// Counter returns the database-wide cost counter; all registered tables
// charge to it.
func (d *Database) Counter() *rel.CostCounter { return &d.counter }

// MergeCounter folds a sharded cost counter (accumulated by a parallel
// maintenance run through storage.Handle.WithCounter handles) into the
// database-wide counter, keeping its totals identical to a sequential run.
// Callers must have joined the goroutines that charged the shard.
func (d *Database) MergeCounter(c rel.CostCounter) { d.counter.Add(c) }

// CreateTable allocates a new stored table on the engine and registers it
// under the given bare-name schema.
func (d *Database) CreateTable(name string, schema rel.Schema) (*storage.Handle, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[name]; dup {
		return nil, fmt.Errorf("db: table %q already exists", name)
	}
	t, err := d.engine.Create(name, schema)
	if err != nil {
		return nil, err
	}
	h := storage.NewHandle(t)
	h.SetCounter(&d.counter)
	d.tables[name] = h
	d.order = append(d.order, name)
	return h, nil
}

// MustCreateTable is CreateTable that panics on error.
func (d *Database) MustCreateTable(name string, schema rel.Schema) *storage.Handle {
	t, err := d.CreateTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// AddTable registers an existing backend table (e.g. one prepared outside
// the catalog by a test) under its own name, wrapping it in a handle that
// charges the database-wide counter. The table must not already be
// wrapped in a *storage.Handle — that would double-charge every access.
func (d *Database) AddTable(t storage.Table) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[t.Name()]; dup {
		return fmt.Errorf("db: table %q already exists", t.Name())
	}
	h := storage.NewHandle(t)
	h.SetCounter(&d.counter)
	d.tables[t.Name()] = h
	d.order = append(d.order, t.Name())
	return nil
}

// DropTable removes a table from the catalog.
func (d *Database) DropTable(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tables[name]; !ok {
		return
	}
	delete(d.tables, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Table implements algebra.Env.
func (d *Database) Table(name string) (*storage.Handle, error) {
	d.mu.RLock()
	t, ok := d.tables[name]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", name)
	}
	return t, nil
}

// Bound implements algebra.Env; a bare database has no relation bindings.
func (d *Database) Bound(name string) (*rel.Binding, error) {
	return nil, fmt.Errorf("db: no relation binding for %q", name)
}

// Uncharged is the database as an algebra.Env whose handles discard their
// access charges: the Env of snapshot reads, which must not perturb the
// maintenance access counters. Like the database it carries no relation
// bindings.
type Uncharged struct{ *Database }

// Table implements algebra.Env.
func (e Uncharged) Table(name string) (*storage.Handle, error) {
	t, err := e.Database.Table(name)
	if err != nil {
		return nil, err
	}
	return t.WithCounter(nil), nil
}

// TableNames returns the registered table names in creation order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.order...)
}

// EnableLogging marks a table's modifications for logging and puts the
// table in its maintenance epoch. The IVM system enables it for every base
// table of a registered view.
func (d *Database) EnableLogging(table string) {
	d.mu.Lock()
	d.logging[table] = true
	d.mu.Unlock()
	d.enterEpoch(table)
}

// LoggingEnabled reports whether modifications to the table are logged.
func (d *Database) LoggingEnabled(table string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.logging[table]
}

// EnableDerivedLogging marks a materialized view as a cascade source: the
// Δ-script executor records every APPLY against it as full-image
// Modifications (via LogDerived), which downstream views consume as their
// modification-log input for the same round. The IVM system enables it
// when a view registers another view as a source. The view is put in its
// maintenance epoch (the IVM system materialized it in one already).
func (d *Database) EnableDerivedLogging(view string) {
	d.mu.Lock()
	d.derivedOn[view] = true
	d.mu.Unlock()
	d.enterEpoch(view)
}

// enterEpoch opens a table's maintenance epoch unless it is in one (or does
// not exist yet). Nothing closes it again: ResetLog advances it. Opening is
// O(1) whatever the table's size — the engine keeps the pre-state as an
// undo overlay, not a copy.
func (d *Database) enterEpoch(name string) {
	if t, err := d.Table(name); err == nil && !t.InEpoch() {
		t.BeginEpoch()
	}
}

// DerivedLoggingEnabled reports whether a view's applied i-diffs are
// recorded into a derived modification log.
func (d *Database) DerivedLoggingEnabled(view string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.derivedOn[view]
}

// LogDerived appends a batch of modifications to a view's derived log.
// Batches arrive in apply-step order (a script runs its steps in order),
// so per-key entry order is deterministic whatever the worker schedule;
// the mutex only arbitrates appends for *different* views maintained
// concurrently.
func (d *Database) LogDerived(view string, mods []Modification) {
	if len(mods) == 0 {
		return
	}
	d.derivedMu.Lock()
	d.derived[view] = append(d.derived[view], mods...)
	d.derivedMu.Unlock()
}

// DerivedLog returns the modifications recorded against a view since the
// last ClearLog/ResetLog — the same-round delta feed of a cascade parent.
func (d *Database) DerivedLog(view string) []Modification {
	d.derivedMu.Lock()
	defer d.derivedMu.Unlock()
	return d.derived[view]
}

// ClearDerivedLogs drops every view's derived modification log without
// touching the base log or any epochs. The IVM system calls it when a
// maintenance round fails: the base log is kept for retry, but derived
// logs are intra-round state — regenerated when the retried round
// re-runs the parent views — so keeping them would feed children
// duplicated entries.
func (d *Database) ClearDerivedLogs() {
	d.derivedMu.Lock()
	for k := range d.derived {
		delete(d.derived, k)
	}
	d.derivedMu.Unlock()
}

// Insert applies and logs an insertion into a base table.
func (d *Database) Insert(table string, row rel.Tuple) error {
	t, err := d.Table(table)
	if err != nil {
		return err
	}
	if err := t.Insert(row); err != nil {
		return err
	}
	if d.LoggingEnabled(table) {
		d.log = append(d.log, Modification{Kind: ModInsert, Table: table, Post: row.Clone()})
	}
	return nil
}

// Delete applies and logs a deletion by primary key; it reports whether a
// row was removed.
func (d *Database) Delete(table string, key []rel.Value) (bool, error) {
	t, err := d.Table(table)
	if err != nil {
		return false, err
	}
	pre, ok := t.Get(rel.StatePost, key)
	if !ok {
		return false, nil
	}
	if !t.DeleteKey(key) {
		return false, nil
	}
	if d.LoggingEnabled(table) {
		// pre aliases the removed row: stored tuples are immutable once stored.
		d.log = append(d.log, Modification{Kind: ModDelete, Table: table, Pre: pre})
	}
	return true, nil
}

// Update applies and logs an update by primary key; it reports whether a
// row was updated.
func (d *Database) Update(table string, key []rel.Value, setAttrs []string, setVals []rel.Value) (bool, error) {
	t, err := d.Table(table)
	if err != nil {
		return false, err
	}
	// One call resolves the key once and hands back both images from the
	// update's critical section, charged as the Get–UpdateKey–Get it replaces.
	pre, post, err := t.UpdateKeyLogged(key, setAttrs, setVals)
	if err != nil || post == nil {
		return false, err
	}
	if d.LoggingEnabled(table) {
		// Both images alias stored rows, which are immutable once stored: the
		// update wrote a modified clone and left pre untouched.
		d.log = append(d.log, Modification{Kind: ModUpdate, Table: table, Pre: pre, Post: post})
	}
	return true, nil
}

// Log returns the modifications logged since the last ResetLog.
func (d *Database) Log() []Modification { return d.log }

// ClearLog clears the modification log (and every derived log) without
// touching any epochs. Besides ResetLog, its only caller is the frozen
// benchmark tracer (benchmark/trace.go), which advances the epochs itself;
// everything else ends a round with ResetLog.
func (d *Database) ClearLog() {
	d.log = nil
	d.ClearDerivedLogs()
}

// ResetLog ends a successful maintenance round: it clears the modification
// log (and every derived log) and advances every table in an epoch — each
// pre-state refreezes at the post-state the views are now consistent with,
// in time proportional to the rows the round wrote. No epoch closes.
func (d *Database) ResetLog() {
	d.ClearLog()
	d.mu.RLock()
	tables := make([]*storage.Handle, len(d.order))
	for i, name := range d.order {
		tables[i] = d.tables[name]
	}
	d.mu.RUnlock()
	for _, t := range tables {
		if t.InEpoch() {
			t.AdvanceEpoch()
		}
	}
}
