package ivm

import (
	"fmt"
	"runtime"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// Mode selects between the paper's ID-based diff propagation (idIVM) and
// the tuple-based baseline it is compared against.
type Mode uint8

// The two maintenance modes.
const (
	ModeID Mode = iota
	ModeTuple
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeTuple {
		return "tuple-based"
	}
	return "id-based"
}

// View is a registered materialized view: its plan, its Δ-script (or
// D-script in tuple mode), and its backing table.
type View struct {
	Name   string
	Plan   algebra.Node
	Script *Script
	Mode   Mode
	// Sources lists the registered views this view's plan scans — its
	// cascade parents, whose applied i-diffs (the derived modification
	// log) are this view's modification-log input. Empty for a view over
	// base tables only.
	Sources []string
	// Level is the view's height in the cascade DAG: 0 over base tables
	// only, 1 + max(parent levels) otherwise. MaintainAll's schedule uses
	// levels as barriers — a level-L view starts only after every view of
	// a lower level completed — while views inside one level fan out over
	// up to Workers goroutines.
	Level int
	// binds resolves the script's base i-diff bindings once, at registration:
	// the name each is read under and the feed slot that holds its instance.
	binds []baseBind
}

// baseBind is one base i-diff binding of a view: BaseBindName(table, i) for
// the view's i-th schema of the table, and where a round's feed keeps the
// instance — slot indexes System.slots[table].
type baseBind struct {
	name  string
	table string
	slot  int
}

// diffSlots are the distinct base i-diff schemas the registered views bind
// over one logged table, in first-registration order. Views over the same
// table mostly generate the same schemas (one insert, one delete, an update
// per conditional attribute set), and a round populates each once for all of
// them. rels and empty hold what every round would otherwise rebuild: the
// instance relation's schema and the shared empty instance.
type diffSlots struct {
	schemas []DiffSchema
	rels    []rel.Schema
	empty   []*rel.Binding
}

// Report summarizes one maintenance run of one view.
type Report struct {
	View     string
	Phases   *PhaseCosts
	Duration time.Duration
	// DiffTuples counts the base-table diff tuples consumed.
	DiffTuples int
}

// RoundHooks observe the lifecycle of a MaintainAll round. The serving
// layer (internal/serve) uses them to coordinate epoch-pinned snapshot
// readers with the round's unpin window; tests use them to hold a round
// open. All three are optional (nil = no-op) and are called from the
// goroutine driving MaintainAll:
//
//   - RoundBegin: every view, cache and logged base table is in its epoch
//     and maintenance is about to run. Pre-state reads are stable from
//     here on.
//   - UnpinBegin: maintenance finished; on success the epochs are about to
//     advance, so pre-state identities are about to move to the new
//     post-state, and on failure every view and cache table is about to
//     be rolled back. Snapshot readers overlapping this window must retry.
//   - RoundEnd: on success the log is reset and the post-state is the new
//     consistent snapshot; on failure every view and cache table holds its
//     state from before the round again, and the log is kept for a retry.
type RoundHooks struct {
	RoundBegin func()
	UnpinBegin func()
	RoundEnd   func()
}

// System is the idIVM engine of Figure 3: it owns view registration
// (base-table i-diff schema generation + Δ-script generation), and view
// maintenance (i-diff instance generation from the modification log +
// Δ-script execution).
type System struct {
	DB    *db.Database
	views map[string]*View
	order []string
	// levels[l] lists the views of cascade level l as indexes into order,
	// in registration order: MaintainAll's schedule, built by RegisterView.
	levels [][]int
	slots  map[string]*diffSlots // by logged table (base table or cascade source)
	// SelfCheck makes every maintenance run validate the effectiveness of
	// the diffs it applies to views (Section 2). The extra probes are
	// charged to the cost counters, so enable it in tests only.
	SelfCheck bool
	// Workers bounds maintenance concurrency: MaintainAll maintains the
	// views of one cascade level on up to that many goroutines (each view
	// charging its own counter shard); 1 runs them one after another on the
	// calling goroutine, and 0 or less means runtime.GOMAXPROCS(0). It is
	// the width of the one schedule, not a choice between two: a view's
	// Δ-script runs its steps in script order, and view state, reports,
	// access counts and a failed round's error are the same at every
	// Workers.
	Workers int
	// Interpret forces every maintenance round through the interpreted
	// evaluator instead of the compiled plans cached at registration —
	// the reference oracle the differential tests compare against.
	Interpret     bool
	OpWorkers     int // ignored: kept because the frozen benchmark/setup.go assigns it
	BatchSize     int // ignored: kept because the frozen benchmark/setup.go assigns it
	SkewThreshold int // ignored: kept because the frozen benchmark/setup.go assigns it
	// PinEpochs is ignored and always true: every view, cache and logged
	// base table stays in its maintenance epoch for life (see MaintainAll),
	// so there is no unpinned protocol left to choose. NewSystem sets it
	// because the frozen benchmark/trace.go and benchmark/layers.go read it
	// to pick the pinned path of their hand-driven round.
	PinEpochs bool
	// Hooks receive round lifecycle notifications; see RoundHooks.
	Hooks RoundHooks
}

// NewSystem creates an idIVM system over a database.
func NewSystem(d *db.Database) *System {
	return &System{DB: d, views: make(map[string]*View), slots: make(map[string]*diffSlots), PinEpochs: true}
}

// RegisterView performs the view-definition-time work: pass 1–4 script
// generation, base diff schema generation, initial materialization of the
// view and its caches, and enabling modification logging on the base
// tables. The plan's attribute names become the view table's columns.
//
// A scanned name that resolves to a registered view makes that view a
// cascade source: the new view treats it exactly like a base table (the
// catalog resolves either), except that its per-round "modification log"
// is the parent's applied i-diffs (the derived log) rather than a trigger
// log — the paper's diff machinery composed over itself. Cycles are
// rejected with VerifyCyclicView before any state is created.
func (s *System) RegisterView(name string, plan algebra.Node, mode Mode, opts ...GenOptions) (*View, error) {
	if _, dup := s.views[name]; dup {
		return nil, fmt.Errorf("ivm: view %q already registered", name)
	}
	// Classify the plan's stored inputs: registered views become cascade
	// sources; everything else must be a base table. The public API makes
	// true cycles unbuildable (a source must already be registered, so the
	// source relation is a DAG by construction); the check still guards the
	// one reachable shape — a plan scanning the name being registered — and
	// the transitive closure, defensively.
	var sources []string
	level := 0
	for _, t := range algebra.BaseTables(plan) {
		if t == name || s.reachesView(t, name) {
			return nil, &VerifyError{Code: VerifyCyclicView, View: name, Step: -1, Name: t,
				Detail: "view plan reads the view being registered; cascades must form a DAG"}
		}
		if src, ok := s.views[t]; ok {
			sources = append(sources, t)
			if src.Level+1 > level {
				level = src.Level + 1
			}
		}
	}
	base, err := GenerateBaseDiffSchemas(plan, s.tableSchema)
	if err != nil {
		return nil, err
	}
	script, err := Generate(name, plan, base, mode == ModeTuple, opts...)
	if err != nil {
		return nil, err
	}
	// The static gate: a script that fails verification never reaches
	// materialization or the executor.
	if err := Verify(script); err != nil {
		return nil, err
	}
	// Compile once, run every round: each compute step caches its
	// executable plan here, so maintenance never re-resolves columns,
	// predicates or probe strategies.
	if err := CompileScript(script); err != nil {
		return nil, err
	}

	// Materialize caches first (γ output caches may read input caches),
	// then the view.
	for _, c := range script.Caches {
		if err := s.materialize(c.Name, c.Plan); err != nil {
			return nil, fmt.Errorf("ivm: materializing cache %s: %w", c.Name, err)
		}
	}
	if err := s.materialize(name, script.ViewPlan); err != nil {
		return nil, fmt.Errorf("ivm: materializing view %s: %w", name, err)
	}

	for _, t := range algebra.BaseTables(plan) {
		if _, isView := s.views[t]; isView {
			s.DB.EnableDerivedLogging(t)
		} else {
			s.DB.EnableLogging(t)
		}
	}

	v := &View{Name: name, Plan: script.ViewPlan, Script: script, Mode: mode, Sources: sources, Level: level,
		binds: s.bindSlots(script.Base)}
	if level == len(s.levels) {
		s.levels = append(s.levels, nil) // a level-L view has a level L-1 source
	}
	s.levels[level] = append(s.levels[level], len(s.order))
	s.views[name] = v
	s.order = append(s.order, name)
	return v, nil
}

// reachesView reports whether the registered view `from` reads `target`
// (directly or through its sources). A non-view `from` reaches nothing.
func (s *System) reachesView(from, target string) bool {
	v, ok := s.views[from]
	if !ok {
		return false
	}
	for _, src := range v.Sources {
		if src == target || s.reachesView(src, target) {
			return true
		}
	}
	return false
}

// materialize runs a plan compiled and stores the result as a keyed table,
// which enters its maintenance epoch there and never leaves it.
func (s *System) materialize(name string, plan algebra.Node) error {
	sch := plan.Schema()
	if len(sch.Key) == 0 {
		return fmt.Errorf("ivm: plan for %q has no inferred IDs", name)
	}
	p, err := algebra.Compile(plan)
	if err != nil {
		return err
	}
	r, err := p.Run(s.DB)
	if err != nil {
		return err
	}
	t, err := s.DB.CreateTable(name, sch)
	if err != nil {
		return err
	}
	for _, row := range r.Tuples {
		if err := t.Insert(row); err != nil {
			return fmt.Errorf("ivm: materializing %q: %w", name, err)
		}
	}
	t.BeginEpoch()
	return nil
}

// View returns a registered view.
func (s *System) View(name string) (*View, bool) {
	v, ok := s.views[name]
	return v, ok
}

// ViewNames lists registered views in registration order.
func (s *System) ViewNames() []string { return append([]string(nil), s.order...) }

// bindSlots resolves a script's base i-diff schemas to feed slots, adding
// the schemas no earlier view binds.
func (s *System) bindSlots(base BaseDiffSchemas) []baseBind {
	var binds []baseBind
	for _, table := range base.Tables() {
		sl := s.slots[table]
		if sl == nil {
			sl = &diffSlots{}
			s.slots[table] = sl
		}
		for i, ds := range base[table] {
			slot := 0
			for slot < len(sl.schemas) && !sl.schemas[slot].Equal(ds) {
				slot++
			}
			if slot == len(sl.schemas) {
				rs := ds.RelSchema()
				sl.schemas = append(sl.schemas, ds)
				sl.rels = append(sl.rels, rs)
				sl.empty = append(sl.empty, rel.BindRelation(rel.NewRelation(rs)))
			}
			binds = append(binds, baseBind{name: BaseBindName(table, i), table: table, slot: slot})
		}
	}
	return binds
}

// diffFeed is one maintenance round's diff feed (Section 5's "populate the
// base-table i-diff instances from the modification log", done once per round
// rather than once per view): each logged table's modifications compacted
// once, and one instance per distinct base i-diff schema, which every view —
// on whichever goroutine maintains it — binding that schema reads. The base
// log is compacted when the feed is built, a cascade source's derived log by
// addSources once the source is maintained; compaction is per table, so a
// cascaded view's input is simply the base tables' instances plus its
// sources'. The feed is filled by the goroutine driving the round before the
// views that read it start, and is read-only from then on: no lock. It is a
// value of the round — built by MaintainAll, dropped when the round ends or
// fails — so a retried round compacts the log again and nothing is
// remembered about a log that may since have been reset and refilled.
type diffFeed struct {
	s *System
	// inst[table][slot] is the instance of s.slots[table].schemas[slot]; a nil
	// entry (or no entry for the table) stands for the slot's empty instance.
	inst map[string][]*rel.Binding
	done map[string]bool // cascade sources whose derived log is in
}

// newFeed compacts the base modification log into a feed.
func (s *System) newFeed() (*diffFeed, error) {
	f := &diffFeed{s: s, inst: make(map[string][]*rel.Binding), done: make(map[string]bool)}
	return f, f.add(s.DB.Log())
}

// add compacts a log and populates the instances of every table it changed.
func (f *diffFeed) add(log []db.Modification) error {
	if len(log) == 0 {
		return nil
	}
	changes, err := CompactLog(log, f.s.tableSchema)
	if err != nil {
		return err
	}
	for table, nc := range changes { //ivmlint:allow maprange — per-table results, order-free
		sl := f.s.slots[table]
		if sl == nil {
			continue // logged, but no registered view binds it
		}
		insts, err := populate(nc, sl.schemas, sl.rels)
		if err != nil {
			return err
		}
		bound := make([]*rel.Binding, len(insts))
		for i, inst := range insts {
			if inst.Len() > 0 {
				bound[i] = rel.BindRelation(inst.Rows)
			}
		}
		f.inst[table] = bound
	}
	return nil
}

// addSources brings in the derived logs of v's cascade sources — the i-diffs
// this round applied to them — that are not in yet. The sources must have
// been maintained: MaintainAll calls it between a source's level and v's.
func (f *diffFeed) addSources(v *View) error {
	for _, src := range v.Sources {
		if f.done[src] {
			continue
		}
		if err := f.add(f.s.DB.DerivedLog(src)); err != nil {
			return err
		}
		f.done[src] = true
	}
	return nil
}

// bindings returns v's binding environment — every base schema of its script
// bound, to the slot's empty instance where the round left it empty — with
// room for the script's step results, and the number of diff tuples bound.
func (f *diffFeed) bindings(v *View) (map[string]*rel.Binding, int) {
	bind := make(map[string]*rel.Binding, len(v.binds)+len(v.Script.Steps))
	total := 0
	for _, b := range v.binds {
		var inst *rel.Binding
		if insts := f.inst[b.table]; insts != nil {
			inst = insts[b.slot]
		}
		if inst == nil {
			inst = f.s.slots[b.table].empty[b.slot]
		}
		bind[b.name] = inst
		total += inst.Len()
	}
	return bind, total
}

func (s *System) tableSchema(t string) (rel.Schema, error) {
	tab, err := s.DB.Table(t)
	if err != nil {
		return rel.Schema{}, err
	}
	return tab.Schema(), nil
}

// workers is Workers resolved: as set when positive, else GOMAXPROCS.
func (s *System) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maintain runs v's Δ-script over its instances in the feed, which must hold
// v's sources (addSources), charging counter. An error names the view.
func (s *System) maintain(v *View, feed *diffFeed, counter *rel.CostCounter) (*Report, error) {
	bind, n := feed.bindings(v)
	start := time.Now()
	pc, err := runScript(s.DB, v.Script, bind, s.SelfCheck, ExecOptions{Counter: counter, Interpret: s.Interpret})
	if err != nil {
		return nil, fmt.Errorf("ivm: view %s: %w", v.Name, err)
	}
	return &Report{View: v.Name, Phases: pc, Duration: time.Since(start), DiffTuples: n}, nil
}

// MaintainAll maintains every registered view against the current log,
// then clears the log (and every derived log) and advances the epochs. It is
// the one maintenance procedure. The round has one diff feed (diffFeed): the
// log is compacted and the base i-diff instances are populated once, whatever
// the number of views, and every view reads the instances it binds from
// there. The schedule goes level by level over the cascade DAG: levels are
// barriers, since a cascaded view's diff feed is the i-diffs the same round
// applied to its parents, and parallelFor runs one level's views — inline at
// Workers 1, on up to Workers goroutines above that. Views and their caches
// are disjoint tables, and each view charges a private counter shard, merged
// into the database counter in registration order once the views have run —
// so reports and totals do not depend on Workers.
//
// Every view, cache and logged base table is in its maintenance epoch for
// life (PinAllEpochs), so StatePre reads anywhere inside the round observe
// exactly the previous round's post-state — a cascade parent's too, while
// its own applies run — and each write sets its pre-image aside. A round
// ends one of two ways. On success db.ResetLog clears the logs and advances
// every epoch to the new post-state. On failure the level that failed runs
// to completion (each of its views to its end or its own error), later
// levels are skipped, and the error returned is that of the failing view
// earliest in registration order, which it names; the reports are those of
// the views registered before it that ran. Then every view and cache table
// is rolled back to its state before the round (RollbackEpoch), the derived
// logs are dropped and the base log is kept: the retry is the fault-free
// round. The Hooks fire around the round.
func (s *System) MaintainAll() ([]*Report, error) {
	s.PinAllEpochs()
	if s.Hooks.RoundBegin != nil {
		s.Hooks.RoundBegin()
	}
	out, err := s.runLevels()
	if s.Hooks.UnpinBegin != nil {
		s.Hooks.UnpinBegin()
	}
	if err == nil {
		s.DB.ResetLog()
	} else {
		// Failed round: every view and cache goes back to its state before
		// the round, and the base log is kept, so the retry is the fault-free
		// round. The derived logs are intra-round state — the retry re-runs
		// every parent, regenerating them — so keeping them would feed
		// children duplicated (or, after a mid-apply failure, partial)
		// modifications on the next round.
		for _, t := range s.viewTables() {
			t.RollbackEpoch()
		}
		s.DB.ClearDerivedLogs()
	}
	if s.Hooks.RoundEnd != nil {
		s.Hooks.RoundEnd()
	}
	return out, err
}

// viewRun is one view's part of a round: its report or error, and the
// counter shard it charged.
type viewRun struct {
	report *Report
	err    error
	cost   rel.CostCounter
}

// runLevels is the body of a MaintainAll round, without its hooks, log
// reset and rollback: it builds the round's feed and runs the levels in
// order. The feed gains the derived logs a level reads before the level
// runs, on this goroutine; the views only read it.
func (s *System) runLevels() ([]*Report, error) {
	feed, err := s.newFeed()
	if err != nil {
		return nil, err
	}
	runs := make([]viewRun, len(s.order))
	for l := range s.levels {
		idxs := s.levels[l]
		failed := false
		for _, i := range idxs {
			if runs[i].err = feed.addSources(s.views[s.order[i]]); runs[i].err != nil {
				failed = true
			}
		}
		if !failed {
			parallelFor(s.workers(), len(idxs), func(k int) {
				r := &runs[idxs[k]]
				r.report, r.err = s.maintain(s.views[s.order[idxs[k]]], feed, &r.cost)
			})
			for _, i := range idxs {
				if runs[i].err != nil {
					failed = true
				}
			}
		}
		if failed {
			break
		}
	}
	// Registration order does not imply level order: a level-0 view may
	// register after a level-1 view, so a view that never ran (a skipped
	// level) can precede the failing view in registration order.
	out := make([]*Report, 0, len(runs))
	for i := range runs {
		s.DB.MergeCounter(runs[i].cost)
		switch {
		case err != nil:
		case runs[i].err != nil:
			err = runs[i].err
		case runs[i].report != nil:
			out = append(out, runs[i].report)
		}
	}
	return out, err
}

// viewTables returns the handles of every view and its caches, in
// registration order: the tables maintenance writes.
func (s *System) viewTables() []*storage.Handle {
	var out []*storage.Handle
	for _, name := range s.order {
		v := s.views[name]
		if t, err := s.DB.Table(v.Name); err == nil {
			out = append(out, t)
		}
		for _, c := range v.Script.Caches {
			if t, err := s.DB.Table(c.Name); err == nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// epochTables returns the handles of every table in the epoch protocol, in
// deterministic order: each view and its caches (registration order), then
// every logged base table (catalog order).
func (s *System) epochTables() []*storage.Handle {
	out := s.viewTables()
	for _, name := range s.DB.TableNames() {
		if s.DB.LoggingEnabled(name) {
			if t, err := s.DB.Table(name); err == nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// PinAllEpochs opens a maintenance epoch on every view, cache and logged
// base table not already in one — the one begin of the epoch protocol, and
// idempotent: a table enters its epoch when it is materialized or marked
// logged, and nothing takes it out again. MaintainAll calls it at round
// start, the serving layer at attach time. Epoch operations are
// uncharged, so counters are unaffected.
func (s *System) PinAllEpochs() {
	for _, t := range s.epochTables() {
		if !t.InEpoch() {
			t.BeginEpoch()
		}
	}
}

// Recompute evaluates a view's plan from scratch (the correctness oracle
// used by tests and the self-check mode).
func (s *System) Recompute(name string) (*rel.Relation, error) {
	v, ok := s.views[name]
	if !ok {
		return nil, fmt.Errorf("ivm: unknown view %q", name)
	}
	return algebra.Eval(v.Plan, s.DB)
}

// CheckConsistent recomputes the view and compares it to the materialized
// table, returning an error describing the first mismatch.
func (s *System) CheckConsistent(name string) error {
	want, err := s.Recompute(name)
	if err != nil {
		return err
	}
	t, err := s.DB.Table(name)
	if err != nil {
		return err
	}
	got := t.Relation(rel.StatePost)
	if !got.EqualSet(want) {
		return fmt.Errorf("ivm: view %q inconsistent:\n got (%d rows) %v\nwant (%d rows) %v",
			name, got.Len(), got.Sorted(), want.Len(), want.Sorted())
	}
	return nil
}
