// Package idivm is an embedded incremental view maintenance (IVM) engine
// implementing "Utilizing IDs to Accelerate Incremental View Maintenance"
// (SIGMOD 2015): materialized SQL views over in-memory keyed tables, kept
// up to date by ID-based diffs (i-diffs) that identify the view tuples to
// modify through subsets of their key attributes instead of full tuples.
//
// Typical use:
//
//	d := idivm.Open()
//	d.MustCreateTable("parts", idivm.Columns("pid", "price"), "pid")
//	...load data...
//	d.MustCreateView(`CREATE VIEW v AS SELECT ... FROM ... WHERE ...`)
//	...modify base tables with Insert/Update/Delete...
//	d.Maintain() // brings every view up to date incrementally
//
// The engine also exposes the paper's tuple-based baseline (ModeTuple) and
// per-maintenance access-count statistics for comparing the two.
package idivm

import (
	"fmt"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/serve"
	"idivm/internal/sqlview"
)

// Mode selects the diff propagation strategy for a view.
type Mode = ivm.Mode

// The two maintenance modes: the paper's ID-based algorithm and the
// tuple-based baseline it compares against.
const (
	ModeID    = ivm.ModeID
	ModeTuple = ivm.ModeTuple
)

// DB is an embedded database with incrementally maintained views.
type DB struct {
	d     *db.Database
	sys   *ivm.System
	srv   *serve.Server    // non-nil when opened WithServing
	plans *serve.PlanCache // the server's when serving, else the DB's own
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	serving *ServingOptions
}

// ServingOptions tunes the concurrent serving layer; see WithServing.
// Zero MaxBatch and Queue pick the defaults (128 and 1024); MaxDelay has
// no default — zero means immediate commit.
type ServingOptions struct {
	// MaxBatch cuts a group-commit batch at this many pending writes.
	MaxBatch int
	// MaxDelay cuts a batch this long after its first write, bounding
	// write latency under trickle load. Zero commits every write
	// immediately; set it explicitly for throughput.
	MaxDelay time.Duration
	// Queue is the write queue capacity; a full queue blocks enqueuers.
	Queue int
}

// WithServing opens the database with the concurrent serving layer
// attached: snapshot reads (ViewSnapshot/QuerySnapshot) become safe under
// concurrent maintenance, and writes may be funneled through the
// group-commit dispatcher (Serving()). Close the database when done.
func WithServing(o ServingOptions) Option {
	return func(c *openConfig) { c.serving = &o }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	d := db.New()
	sys := ivm.NewSystem(d)
	x := &DB{d: d, sys: sys}
	if cfg.serving == nil {
		x.plans = serve.NewPlanCache(d)
		return x
	}
	x.srv = serve.New(d, sys, serve.Options{
		MaxBatch: cfg.serving.MaxBatch,
		MaxDelay: cfg.serving.MaxDelay,
		Queue:    cfg.serving.Queue,
	})
	x.plans = x.srv.Plans()
	return x
}

// Close stops the serving layer, if one is attached, committing any
// queued writes in a final maintenance round. The database itself needs
// no teardown.
func (x *DB) Close() error {
	if x.srv != nil {
		return x.srv.Close()
	}
	return nil
}

// Columns is a convenience constructor for column name lists.
func Columns(names ...string) []string { return names }

// CreateTable registers a base table with the given columns; key names the
// primary key columns (required — idIVM exploits keys).
func (x *DB) CreateTable(name string, columns []string, key ...string) error {
	seen := map[string]bool{}
	for _, c := range columns {
		if seen[c] {
			return fmt.Errorf("idivm: table %s names column %q twice", name, c)
		}
		seen[c] = true
	}
	for _, k := range key {
		if !seen[k] {
			return fmt.Errorf("idivm: key column %q of table %s is not one of its columns %v", k, name, columns)
		}
	}
	_, err := x.d.CreateTable(name, rel.NewSchema(columns, key))
	return err
}

// MustCreateTable is CreateTable that panics on error.
func (x *DB) MustCreateTable(name string, columns []string, key ...string) {
	if err := x.CreateTable(name, columns, key...); err != nil {
		panic(err)
	}
}

// toValue converts a native Go value into an engine value.
func toValue(v any) (rel.Value, error) {
	switch t := v.(type) {
	case nil:
		return rel.Null(), nil
	case rel.Value:
		return t, nil
	case int:
		return rel.Int(int64(t)), nil
	case int32:
		return rel.Int(int64(t)), nil
	case int64:
		return rel.Int(t), nil
	case float32:
		return rel.Float(float64(t)), nil
	case float64:
		return rel.Float(t), nil
	case string:
		return rel.String(t), nil
	case bool:
		return rel.Bool(t), nil
	default:
		return rel.Value{}, fmt.Errorf("idivm: unsupported value type %T", v)
	}
}

// fromValue converts an engine value back to a native Go value.
func fromValue(v rel.Value) any {
	switch v.Kind {
	case rel.KindNull:
		return nil
	case rel.KindBool:
		return v.AsBool()
	case rel.KindInt:
		return v.AsInt()
	case rel.KindFloat:
		return v.AsFloat()
	case rel.KindString:
		return v.Text()
	}
	return nil
}

func toTuple(vals []any) (rel.Tuple, error) {
	t := make(rel.Tuple, len(vals))
	for i, v := range vals {
		rv, err := toValue(v)
		if err != nil {
			return nil, err
		}
		t[i] = rv
	}
	return t, nil
}

// keyTuple converts a primary-key argument and checks it against the
// table's key: a key of the wrong length finds no row on any table, which
// would read as "no such row" instead of a caller mistake.
func (x *DB) keyTuple(table string, key []any) (rel.Tuple, error) {
	t, err := x.d.Table(table)
	if err != nil {
		return nil, err
	}
	if want := t.Schema().Key; len(key) != len(want) {
		return nil, fmt.Errorf("idivm: table %s has key %v, got %d value(s)", table, want, len(key))
	}
	return toTuple(key)
}

// Insert adds a row to a base table (logged for view maintenance).
func (x *DB) Insert(table string, values ...any) error {
	t, err := toTuple(values)
	if err != nil {
		return err
	}
	return x.d.Insert(table, t)
}

// MustInsert is Insert that panics on error.
func (x *DB) MustInsert(table string, values ...any) {
	if err := x.Insert(table, values...); err != nil {
		panic(err)
	}
}

// setLists converts an update's set map into schema-ordered attr/value
// lists (deterministic order: follow the table schema).
func (x *DB) setLists(table string, set map[string]any) ([]string, []rel.Value, error) {
	t, err := x.d.Table(table)
	if err != nil {
		return nil, nil, err
	}
	attrs := make([]string, 0, len(set))
	vals := make([]rel.Value, 0, len(set))
	for _, a := range t.Schema().Attrs {
		if v, ok := set[a]; ok {
			rv, err := toValue(v)
			if err != nil {
				return nil, nil, err
			}
			attrs = append(attrs, a)
			vals = append(vals, rv)
		}
	}
	if len(attrs) != len(set) {
		return nil, nil, fmt.Errorf("idivm: update of %s sets unknown column(s) %v", table, set)
	}
	return attrs, vals, nil
}

// Update modifies the row with the given primary key, setting the named
// columns. It reports whether a row was found.
func (x *DB) Update(table string, key []any, set map[string]any) (bool, error) {
	kt, err := x.keyTuple(table, key)
	if err != nil {
		return false, err
	}
	attrs, vals, err := x.setLists(table, set)
	if err != nil {
		return false, err
	}
	return x.d.Update(table, kt, attrs, vals)
}

// Delete removes the row with the given primary key, reporting whether a
// row was found.
func (x *DB) Delete(table string, key ...any) (bool, error) {
	kt, err := x.keyTuple(table, key)
	if err != nil {
		return false, err
	}
	return x.d.Delete(table, kt)
}

// CreateView parses a CREATE VIEW statement (or a bare SELECT plus an
// explicit name) and registers it for ID-based incremental maintenance.
// The view is materialized immediately.
func (x *DB) CreateView(sql string, opts ...ViewOption) error {
	cfg := viewConfig{mode: ModeID}
	for _, o := range opts {
		o(&cfg)
	}
	v, err := sqlview.Parse(sql, x.d)
	if err != nil {
		return err
	}
	name := v.Name
	if name == "" {
		name = cfg.name
	}
	if name == "" {
		return fmt.Errorf("idivm: view needs a name (use CREATE VIEW name AS … or WithName)")
	}
	_, err = x.sys.RegisterView(name, v.Plan, cfg.mode)
	return err
}

// MustCreateView is CreateView that panics on error.
func (x *DB) MustCreateView(sql string, opts ...ViewOption) {
	if err := x.CreateView(sql, opts...); err != nil {
		panic(err)
	}
}

// ViewOption configures CreateView.
type ViewOption func(*viewConfig)

type viewConfig struct {
	name string
	mode Mode
}

// WithName names a view defined by a bare SELECT.
func WithName(name string) ViewOption { return func(c *viewConfig) { c.name = name } }

// WithMode selects the maintenance strategy (default ModeID).
func WithMode(m Mode) ViewOption { return func(c *viewConfig) { c.mode = m } }

// MaintenanceStats reports one view's maintenance round.
type MaintenanceStats struct {
	View string
	// DiffTuples is the number of base-table i-diff tuples consumed.
	DiffTuples int
	// Accesses is the total access count (tuple accesses + index lookups),
	// the cost unit of the paper's analysis.
	Accesses int64
	// RowsTouched counts modified view/cache rows.
	RowsTouched int
	Duration    time.Duration
}

// SetWorkers bounds maintenance concurrency: Maintain maintains the views of
// one cascade level concurrently on up to n goroutines (a view's own
// Δ-script steps always run in order). 1 runs each level's views one after
// another; 0, the default, means GOMAXPROCS. Results, access counts and a
// failed Maintain's error are the same at any n, and a failed Maintain
// leaves every view as it was.
func (x *DB) SetWorkers(n int) { x.sys.Workers = n }

// Maintain incrementally brings every registered view up to date with the
// base-table modifications since the previous call, and clears the log.
func (x *DB) Maintain() ([]MaintenanceStats, error) {
	x.d.Counter().Reset()
	reports, err := x.sys.MaintainAll()
	if err != nil {
		return nil, err
	}
	out := make([]MaintenanceStats, len(reports))
	for i, r := range reports {
		out[i] = MaintenanceStats{
			View:        r.View,
			DiffTuples:  r.DiffTuples,
			Accesses:    r.Phases.Total().Total(),
			RowsTouched: r.Phases.RowsTouched,
			Duration:    r.Duration,
		}
	}
	return out, nil
}

// Rows is a generic query result.
type Rows struct {
	Columns []string
	Data    [][]any
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

func rowsFromRelation(rr *rel.Relation) *Rows {
	out := &Rows{Columns: append([]string(nil), rr.Schema.Attrs...)}
	for _, t := range rr.Sorted().Tuples {
		row := make([]any, len(t))
		for i, v := range t {
			row[i] = fromValue(v)
		}
		out.Data = append(out.Data, row)
	}
	return out
}

// View returns the current contents of a materialized view (sorted for
// determinism).
func (x *DB) View(name string) (*Rows, error) {
	t, err := x.d.Table(name)
	if err != nil {
		return nil, err
	}
	return rowsFromRelation(t.Relation(rel.StatePost)), nil
}

// Query evaluates an ad-hoc SELECT against the current base tables
// (no materialization). Its compiled plan comes from the database's plan
// cache, and its stored accesses are charged to AccessCounter.
func (x *DB) Query(sql string) (*Rows, error) {
	return x.read(sql, rel.StatePost, x.d)
}

// read runs sql's cached plan against env in state st.
func (x *DB) read(sql string, st rel.State, env algebra.Env) (*Rows, error) {
	rr, err := x.plans.Read(sql, st, func(p *algebra.ExecPlan) (*rel.Relation, error) { return p.Run(env) })
	if err != nil {
		return nil, err
	}
	return rowsFromRelation(rr), nil
}

// CheckConsistent recomputes a view from scratch and compares it to its
// maintained contents, returning a descriptive error on mismatch. Intended
// for tests and debugging.
func (x *DB) CheckConsistent(view string) error { return x.sys.CheckConsistent(view) }

// Script returns the generated Δ-script of a view, rendered as text — the
// artifact of the paper's Figure 7.
func (x *DB) Script(view string) (string, error) {
	v, ok := x.sys.View(view)
	if !ok {
		return "", fmt.Errorf("idivm: unknown view %q", view)
	}
	return v.Script.String(), nil
}

// AccessCounter exposes the database-wide access counters (reads, index
// lookups, writes) for benchmarking.
func (x *DB) AccessCounter() (reads, lookups, writes int64) {
	c := x.d.Counter()
	return c.TupleReads, c.IndexLookups, c.TupleWrites
}

// ResetAccessCounter zeroes the counters.
func (x *DB) ResetAccessCounter() { x.d.Counter().Reset() }

// ViewSnapshot returns the contents of a materialized view as of the
// last completed maintenance round. With serving attached it is safe
// under a concurrent in-flight round: it never waits for the round and
// never observes a torn state. The read is uncharged — it does not
// perturb AccessCounter.
func (x *DB) ViewSnapshot(name string) (*Rows, error) {
	if x.srv != nil {
		rr, err := x.srv.ViewSnapshot(name)
		if err != nil {
			return nil, err
		}
		return rowsFromRelation(rr), nil
	}
	t, err := x.d.Table(name)
	if err != nil {
		return nil, err
	}
	return rowsFromRelation(t.Relation(rel.StatePre)), nil
}

// QuerySnapshot evaluates an ad-hoc SELECT against the snapshot of the
// last completed maintenance round: every stored table in the plan reads
// its pinned pre-state (views and logged base tables; an unlogged table
// reads live). Safe under concurrent maintenance when serving is
// attached, and uncharged either way.
func (x *DB) QuerySnapshot(sql string) (*Rows, error) {
	if x.srv != nil {
		rr, err := x.srv.QuerySnapshot(sql)
		if err != nil {
			return nil, err
		}
		return rowsFromRelation(rr), nil
	}
	return x.read(sql, rel.StatePre, db.Uncharged{Database: x.d})
}

// PendingWrite is a handle on a write queued through the serving layer;
// Wait blocks until its group-commit batch has been applied and
// maintained.
type PendingWrite = serve.Pending

// ServingStats are the serving layer's own counters (snapshot reads,
// retries, batches, rounds) — kept apart from AccessCounter so reader
// traffic never perturbs the paper's cost metric.
type ServingStats = serve.Stats

// Serving is the concurrent write facade: its methods may be called from
// many goroutines; the group-commit dispatcher funnels them into the
// single-writer modification log and maintains views in batches.
type Serving struct {
	x *DB
	s *serve.Server
}

// Serving returns the serving handle, or nil when the database was opened
// without WithServing.
func (x *DB) Serving() *Serving {
	if x.srv == nil {
		return nil
	}
	return &Serving{x: x, s: x.srv}
}

// Insert queues an insert and waits for its batch to commit.
func (s *Serving) Insert(table string, values ...any) error {
	return s.EnqueueInsert(table, values...).Wait()
}

// Update queues a primary-key update and waits for its batch to commit.
// A missing key is not an error (no row, no modification).
func (s *Serving) Update(table string, key []any, set map[string]any) error {
	return s.EnqueueUpdate(table, key, set).Wait()
}

// Delete queues a primary-key delete and waits for its batch to commit.
// A missing key is not an error.
func (s *Serving) Delete(table string, key ...any) error {
	return s.EnqueueDelete(table, key...).Wait()
}

// EnqueueInsert queues an insert for the next batch without waiting.
func (s *Serving) EnqueueInsert(table string, values ...any) *PendingWrite {
	t, err := toTuple(values)
	if err != nil {
		return serve.NewFailedPending(err)
	}
	return s.s.EnqueueInsert(table, t)
}

// EnqueueUpdate queues a primary-key update for the next batch without
// waiting.
func (s *Serving) EnqueueUpdate(table string, key []any, set map[string]any) *PendingWrite {
	kt, err := s.x.keyTuple(table, key)
	if err != nil {
		return serve.NewFailedPending(err)
	}
	attrs, vals, err := s.x.setLists(table, set)
	if err != nil {
		return serve.NewFailedPending(err)
	}
	return s.s.EnqueueUpdate(table, kt, attrs, vals)
}

// EnqueueDelete queues a primary-key delete for the next batch without
// waiting.
func (s *Serving) EnqueueDelete(table string, key ...any) *PendingWrite {
	kt, err := s.x.keyTuple(table, key)
	if err != nil {
		return serve.NewFailedPending(err)
	}
	return s.s.EnqueueDelete(table, kt)
}

// Flush commits everything queued so far in one maintenance round and
// waits for it.
func (s *Serving) Flush() error { return s.s.Flush() }

// Stats returns the serving layer's cumulative counters.
func (s *Serving) Stats() ServingStats { return s.s.Stats() }

// Subscription is a bounded-buffer stream of one view's per-round applied
// i-diffs; see DB.Subscribe.
type Subscription = serve.Subscription

// Delta is one committed round's applied i-diffs for one view, as
// delivered on a Subscription. Each instance in Diffs holds the columns its
// round applied; inst.Tuples() builds its rows as tuples (once, on the
// caller's goroutine — the round never does), inst.RowSchema() names their
// columns and inst.Len() counts them without building anything.
type Delta = serve.Delta

// Subscribe registers a streaming delta subscription on a materialized
// view: every committed maintenance round delivers one Delta carrying
// exactly the i-diffs that round applied to the view, in round order.
// Delivery is bounded-buffer with backpressure — a slow consumer throttles
// the group-commit dispatcher rather than dropping deltas — so receive
// promptly or Close. Requires WithServing; views registered as cascade
// sources and cascade children may both be subscribed.
func (x *DB) Subscribe(view string) (*Subscription, error) {
	if x.srv == nil {
		return nil, fmt.Errorf("idivm: Subscribe requires a database opened WithServing")
	}
	return x.srv.Subscribe(view, 0)
}

// Unwrap exposes the internal database for advanced integrations within
// this module (the experiment harness and benchmarks).
func (x *DB) Unwrap() (*db.Database, *ivm.System) { return x.d, x.sys }

// UnwrapServer exposes the internal serving layer (nil without
// WithServing) for the benchmarks and tests in this module.
func (x *DB) UnwrapServer() *serve.Server { return x.srv }
