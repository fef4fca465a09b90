// Package storage defines idIVM's storage-engine boundary: the contract
// between the engine-independent layers (catalog + modification log in
// internal/db, the two plan evaluators in internal/algebra, the Δ-script
// executor in internal/ivm) and the store they run against.
//
// The boundary has three pieces:
//
//   - Engine — the backend factory: creating named keyed tables. The catalog
//     in internal/db owns the name→table mapping and delegates allocation
//     here.
//   - Table — the per-relation data plane: full scans, keyed and secondary
//     index lookups, the diff-batch apply operations (InsertIfAbsent /
//     DeleteWhere / UpdateWhere, the APPLY semantics of the paper's
//     Section 2), epoch open/close for the deferred-IVM pre-state, and
//     uncharged cardinality statistics for access-path planning.
//   - Handle — the cost-counting decorator every consumer goes through.
//     Backends implement pure storage; Handle derives the paper's
//     access-count charges (Section 6) from each call and its result, so
//     charging is one piece of code whatever the backend.
//
// One backend ships: the in-memory engine (NewMem, backed by rel.Table).
// The boundary's other implementations are the test engines in
// internal/storage/storagetest: a fault-injecting wrapper of it and a
// hash-partitioned one.
package storage

import (
	"fmt"
	"os"
	"strings"

	"idivm/internal/rel"
)

// Table is the data-plane contract of one stored relation (a base table, a
// materialized view, or an intermediate cache). Implementations provide
// pure storage semantics and charge nothing: cost accounting is layered on
// uniformly by Handle.
//
// The concurrency contract matches rel.Table's: readers (Scan/Get/Lookup/
// LookupInto/Len/Rows/Relation) may run concurrently; a table has one
// writer at a time — a maintenance round gives each view and cache table to
// one view, whose Δ-script applies its steps in order — and writes must be
// safe against concurrent readers of the other state (pre-state probes
// during apply).
type Table interface {
	// Name returns the table's name.
	Name() string
	// Schema returns the table's schema (attributes + primary key).
	Schema() rel.Schema

	// Len returns the number of live (post-state) rows.
	Len() int
	// StateLen returns the row count of the requested state, IndexCard's n.
	StateLen(s rel.State) int
	// Rows returns the raw tuples of the requested state (verification and
	// snapshot utility; plan evaluation must go through Scan on a Handle).
	// Callers must not mutate the tuples.
	Rows(s rel.State) []rel.Tuple
	// Scan reads every tuple of the requested state. Callers must not
	// mutate the returned tuples. A post-state result may alias backend
	// storage; a StatePre result of an open epoch is never modified by
	// later writes, so it may be retained across them (and across
	// AdvanceEpoch/EndEpoch).
	Scan(s rel.State) []rel.Tuple
	// Relation materializes the requested state as an independent Relation.
	Relation(s rel.State) *rel.Relation
	// Get fetches the row with the given primary-key values.
	Get(s rel.State, key []rel.Value) (rel.Tuple, bool)
	// Lookup probes a (lazily built) secondary hash index over attrs.
	Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error)
	// LookupInto is Lookup through a prepared probe, appending matches to
	// out.
	LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, out []rel.Tuple) ([]rel.Tuple, error)
	// IndexCard reports (p, n): matching rows on the secondary index over
	// attrs and the state's total row count — the uncharged catalog
	// statistics the planner consults for index-vs-scan decisions.
	IndexCard(s rel.State, attrs []string, vals []rel.Value) (p, n int, err error)

	// Insert adds a row, failing on a primary-key conflict.
	Insert(row rel.Tuple) error
	// InsertRow is Insert returning the stored row, the table's own copy of
	// row, which it never modifies.
	InsertRow(row rel.Tuple) (stored rel.Tuple, err error)
	// InsertIfAbsent, DeleteWhere and UpdateWhere are the three APPLY
	// statements of the paper's Section 2, set-at-a-time: one call applies
	// one i-diff instance. b holds the diff's rows as columns — the batch the
	// Δ-script step that computed the diff produced — applied in row order;
	// the column maps say which of b's columns hold a statement's values, and
	// a statement reads no other column: it gathers a row's ID and SET
	// values, or builds the row it stores, straight from the columns, and
	// never turns a diff row into a tuple. Each returns how many diff rows it
	// probed (those whose index probe ran — what Handle charges lookups by)
	// and how many stored rows it affected.
	// Validation fails before any row; a key conflict in the middle of an
	// insert instance leaves the rows before it applied and counts the
	// conflicting row as probed. The image callbacks (when non-nil) run in
	// apply order from the statement's own critical section — no extra
	// probes, so (through Handle) the charge does not depend on fn — and
	// must not call back into the table. This is how a view's applied
	// i-diffs become the derived modification log a cascaded view consumes.
	// A writer holds the table's lock for a bounded run of rows (or one
	// DeleteWhere key), never for a whole instance.
	//
	// InsertIfAbsent stores, for each diff row, its src columns (in the
	// table's attribute order) unless an identical row exists; a row with the
	// same key and other values is an error. fn sees each row stored.
	InsertIfAbsent(b *rel.Batch, src []int, fn func(post rel.Tuple)) (probed, inserted int, err error)
	// DeleteKey removes the row with the given primary-key values.
	DeleteKey(key []rel.Value) bool
	// DeleteRow is DeleteKey returning the removed row, nil when there is
	// none.
	DeleteRow(key []rel.Value) (pre rel.Tuple)
	// DeleteWhere removes, for each diff row, every row whose attrs equal
	// the diff row's cols. fn sees each removed row's full pre-image.
	DeleteWhere(attrs []string, b *rel.Batch, cols []int, fn func(pre rel.Tuple)) (probed, deleted int, err error)
	// UpdateWhere overwrites, for each diff row, setAttrs with the diff
	// row's setCols on every row whose attrs equal its cols. Key attributes
	// are immutable. fn sees each updated row's full pre- and post-image.
	UpdateWhere(attrs []string, b *rel.Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post rel.Tuple)) (probed, updated int, err error)
	// UpdateKey updates the single row with the given primary key and
	// returns its pre- and post-image, both nil when there is no such row.
	UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (pre, post rel.Tuple, err error)

	// AdvanceEpoch atomically refreezes the pre-state at the current
	// contents (EndEpoch + BeginEpoch in one step): concurrent StatePre
	// readers resolve either the old or the new pre-state, never a mix.
	// Its cost must be proportional to the rows written since the epoch
	// opened or last advanced, not to the table: db.ResetLog calls it on
	// every table in an epoch after every round, inside the window
	// snapshot readers spin through.
	AdvanceEpoch()
	// BeginEpoch freezes the current contents as the pre-state; subsequent
	// mutations affect only the post-state (deferred IVM, Section 3). It
	// is O(1) — backends read the pre-state from the post-state and the
	// pre-images of the rows written since, they do not copy the table.
	// A StatePre scan result is never modified by later writes.
	BeginEpoch()
	// EndEpoch discards the pre-state, in time proportional to the rows
	// written during the epoch.
	EndEpoch()
	// RollbackEpoch puts the post-state back to the pre-state — every write
	// since the epoch opened or last advanced is undone — in time
	// proportional to those writes, and leaves the epoch open. The
	// pre-state does not change, so a concurrent StatePre reader is
	// unaffected; outside an epoch it does nothing. A failed maintenance
	// round calls it on every view and cache table it wrote.
	RollbackEpoch()
	// InEpoch reports whether a maintenance epoch is open.
	InEpoch() bool
}

// Engine is a storage backend: it allocates the tables the catalog
// registers. Engines are stateless factories here — the catalog
// (db.Database) owns the name→table mapping, logging policy and the
// database-wide counter; per-table state lives behind Table.
type Engine interface {
	// Create allocates a new empty table with the given schema. The schema
	// must declare a non-empty primary key.
	Create(name string, schema rel.Schema) (Table, error)
}

// FromEnv returns the in-memory engine, the only one. $IDIVM_ENGINE may be
// empty or "mem"; any other value panics, so a run configured for another
// backend fails instead of quietly testing mem.
func FromEnv() Engine {
	if v := strings.TrimSpace(os.Getenv("IDIVM_ENGINE")); v != "" && v != "mem" {
		panic(fmt.Sprintf("storage: IDIVM_ENGINE=%q names no engine; the only one is \"mem\"", v))
	}
	return NewMem()
}
