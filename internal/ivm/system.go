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
	// only, 1 + max(parent levels) otherwise. MaintainAll's scheduler uses
	// levels as barriers — a level-L view starts only after every view of
	// a lower level completed — while views inside one level still fan out
	// over the worker pool.
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
//   - RoundBegin: every view and cache table is in an epoch (with
//     PinEpochs, every logged base table too) and maintenance is about to
//     run. Pre-state reads are stable from here on.
//   - UnpinBegin: maintenance finished; on success the epochs are about to
//     close or advance, so pre-state identities are about to move to the
//     new post-state, and on failure every view and cache table is about
//     to be rolled back. Snapshot readers overlapping this window must
//     retry.
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
	slots map[string]*diffSlots // by logged table (base table or cascade source)
	// SelfCheck makes every maintenance run validate the effectiveness of
	// the diffs it applies to views (Section 2). The extra probes are
	// charged to the cost counters, so enable it in tests only.
	SelfCheck bool
	// Workers bounds maintenance concurrency: MaintainAll maintains the
	// views of one cascade level concurrently on up to that many goroutines
	// (each view charging its own counter shard). 1 keeps maintenance fully
	// sequential; 0 or less means runtime.GOMAXPROCS(0). A view's Δ-script
	// runs its steps in script order whatever Workers is. Final view state,
	// reports and access counts are identical to the sequential run's, and
	// so is the state a failed round leaves: the one from before the round.
	Workers int
	// Interpret forces every maintenance round through the interpreted
	// evaluator instead of the compiled plans cached at registration —
	// the reference oracle the differential tests compare against.
	Interpret     bool
	OpWorkers     int // ignored: kept because the frozen benchmark/setup.go assigns it
	BatchSize     int // ignored: kept because the frozen benchmark/setup.go assigns it
	SkewThreshold int // ignored: kept because the frozen benchmark/setup.go assigns it
	// PinEpochs keeps every view, cache and logged base table in a
	// permanent maintenance epoch: MaintainAll pins any not yet pinned at
	// round start and, at round end, atomically advances each pre-state to
	// the new post-state (AdvanceEpoch) instead of closing the epochs. A
	// concurrent snapshot reader therefore always resolves StatePre to
	// some completed round's frozen state, never to live storage. On a
	// failed round nothing advances — the views roll back, readers keep the
	// last good state and the log is retained for retry. Epoch operations
	// are uncharged, so access counts are byte-identical with the flag on or
	// off. Set by the serving layer (internal/serve).
	PinEpochs bool
	// Hooks receive round lifecycle notifications; see RoundHooks.
	Hooks RoundHooks
}

// NewSystem creates an idIVM system over a database.
func NewSystem(d *db.Database) *System {
	return &System{DB: d, views: make(map[string]*View), slots: make(map[string]*diffSlots)}
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

// materialize evaluates a plan and stores the result as a keyed table.
func (s *System) materialize(name string, plan algebra.Node) error {
	sch := plan.Schema()
	if len(sch.Key) == 0 {
		return fmt.Errorf("ivm: plan for %q has no inferred IDs", name)
	}
	r, err := algebra.Eval(plan, s.DB)
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
// and, under Workers > 1, every worker — binding that schema reads. The base
// log is compacted when the feed is built, a cascade source's derived log by
// addSources once the source is maintained; compaction is per table, so a
// cascaded view's input is simply the base tables' instances plus its
// sources'. The feed is filled by the goroutine driving the round before the
// views that read it start, and is read-only from then on: no lock. It is a
// value of the round — built by MaintainAll (a lone Maintain builds its own),
// dropped when the round ends or fails — so a retried round compacts the log
// again and nothing is remembered about a log that may since have been reset
// and refilled.
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

// feedFor is the throw-away feed of a view maintained on its own: the base
// log and the derived logs of v's sources, as they are now.
func (s *System) feedFor(v *View) (*diffFeed, error) {
	f, err := s.newFeed()
	if err == nil {
		err = f.addSources(v)
	}
	return f, err
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

// GenerateInstances compacts the current modification log (and the derived
// logs of v's cascade sources) into effective per-table net changes and
// returns the base diff instances v's script consumes, keyed by BaseBindName,
// with the number of diff tuples in them. All registered schemas get a
// binding (possibly empty) so scripts can always resolve them. It is what a
// lone Maintain(v) would read; the log is not consumed.
func (s *System) GenerateInstances(v *View) (map[string]*rel.Relation, int, error) {
	feed, err := s.feedFor(v)
	if err != nil {
		return nil, 0, err
	}
	bind, total := feed.bindings(v)
	out := make(map[string]*rel.Relation, len(bind))
	for name, inst := range bind { //ivmlint:allow maprange — map-to-map copy, order-free
		out[name] = inst.Relation()
	}
	return out, total, nil
}

// Maintain brings one view up to date with the modification log without
// consuming the log (other views may still need it); call ResetLog (or use
// MaintainAll) once every view is maintained. It compacts the log for
// itself — a diff feed of its own, gone when it returns.
//
// In a cascade, maintain parents before children within the same round
// (registration order always satisfies this; MaintainAll does it for
// you): a child's diff feed is whatever its sources' derived logs hold.
func (s *System) Maintain(name string) (*Report, error) {
	v, ok := s.views[name]
	if !ok {
		return nil, fmt.Errorf("ivm: unknown view %q", name)
	}
	s.beginCascadeEpochs()
	feed, err := s.feedFor(v)
	if err != nil {
		return nil, err
	}
	return s.maintain(v, feed, s.execOptions(nil))
}

// execOptions is the System's knob set as one script run's options,
// charging counter (nil = the database-wide one).
func (s *System) execOptions(counter *rel.CostCounter) ExecOptions {
	return ExecOptions{Counter: counter, Interpret: s.Interpret}
}

// workers is Workers resolved: as set when positive, else GOMAXPROCS.
func (s *System) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// beginCascadeEpochs opens a maintenance epoch on every derived-logged
// source view not already in one. A cascade parent's epoch must open
// before the parent's own apply steps run, so that a child's pre-state
// reads of the parent observe the round-start state — the same "first
// logged modification freezes the pre-state" rule db applies to base
// tables, with the parent's applies playing the modification role.
// ResetLog closes these epochs with the base tables'; under PinEpochs
// every view is permanently pinned and this is a no-op. Epoch operations
// are uncharged.
func (s *System) beginCascadeEpochs() {
	for _, name := range s.order {
		if !s.DB.DerivedLoggingEnabled(name) {
			continue
		}
		if t, err := s.DB.Table(name); err == nil && !t.InEpoch() {
			t.BeginEpoch()
		}
	}
}

// maintain runs v's Δ-script over its instances in the feed, which must hold
// v's sources (addSources).
func (s *System) maintain(v *View, feed *diffFeed, opts ExecOptions) (*Report, error) {
	bind, n := feed.bindings(v)
	start := time.Now()
	pc, err := runScript(s.DB, v.Script, bind, s.SelfCheck, opts)
	if err != nil {
		return nil, err
	}
	return &Report{View: v.Name, Phases: pc, Duration: time.Since(start), DiffTuples: n}, nil
}

// MaintainAll maintains every registered view against the current log,
// then clears the log (and every derived log) and closes the epochs. The
// round has one diff feed (diffFeed): the log is compacted and the base
// i-diff instances are populated once, whatever the number of views, and
// every view reads the instances it binds from there. The schedule is
// topological over the cascade DAG: registration order is already
// sources-first, and with more than one worker (Workers; by default
// GOMAXPROCS) the views fan out level by level — levels are barriers, since
// a cascaded view's diff feed is the i-diffs the same round applied to its
// parents, while independent views inside a level are maintained
// concurrently on the worker pool. Views and their caches are disjoint
// tables, and each view charges a private counter shard, merged into the
// database counter in registration order once all views complete — so
// reports and totals are those of the sequential run.
//
// A round is atomic. Every view and cache table is in a maintenance epoch
// from round start — one the round opens itself unless the table is
// already in one — so each write sets its pre-image aside. If the round
// fails, wherever and at whatever Workers, every view and cache table is
// rolled back to its state before the round (RollbackEpoch), the derived
// logs are dropped and the base log is kept: the retry is the fault-free
// round. The epochs the round opened are closed when it ends.
//
// With PinEpochs set, every logged base table is pinned as well and the
// epochs never close: on success each pre-state advances to the new
// post-state after the log is cleared, so StatePre reads anywhere inside
// the round observe exactly the previous round's post-state. The Hooks
// fire around the round.
func (s *System) MaintainAll() ([]*Report, error) {
	if s.PinEpochs {
		s.PinAllEpochs()
	}
	s.beginCascadeEpochs()
	written := s.viewTables()
	opened := openEpochs(written)
	if s.Hooks.RoundBegin != nil {
		s.Hooks.RoundBegin()
	}
	var out []*Report
	feed, err := s.newFeed()
	switch {
	case err != nil:
	case s.workers() > 1 && len(s.order) > 1:
		out, err = s.maintainAllParallel(feed)
	default:
		for _, name := range s.order {
			v := s.views[name]
			if err = feed.addSources(v); err != nil {
				break
			}
			var r *Report
			if r, err = s.maintain(v, feed, s.execOptions(nil)); err != nil {
				break
			}
			out = append(out, r)
		}
	}
	if s.Hooks.UnpinBegin != nil {
		s.Hooks.UnpinBegin()
	}
	if err == nil {
		if s.PinEpochs {
			// The pinned path never leaves the epoch: clear the consumed
			// log, then atomically refreeze every served table's
			// pre-state at the new post-state. Each advance costs O(rows
			// the round wrote to that table) — untouched tables cost a
			// lock — so the sweep, and with it the window snapshot
			// readers retry through, is proportional to the round's
			// writes, not to the state. A failed round skips both, so
			// readers keep the last good state and the log is retained.
			s.DB.ClearLog()
			for _, t := range s.epochTables() {
				t.AdvanceEpoch()
			}
		} else {
			s.DB.ResetLog()
		}
	} else {
		// Failed round: every view and cache goes back to its state before
		// the round, and the base log is kept, so the retry is the fault-free
		// round. The derived logs are intra-round state — the retry re-runs
		// every parent, regenerating them — so keeping them would feed
		// children duplicated (or, after a mid-apply failure, partial)
		// modifications on the next round.
		for _, t := range written {
			t.RollbackEpoch()
		}
		s.DB.ClearDerivedLogs()
	}
	for _, t := range opened {
		t.EndEpoch()
	}
	if s.Hooks.RoundEnd != nil {
		s.Hooks.RoundEnd()
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

// epochTables returns the handles of every table serving snapshot readers
// care about, in deterministic order: each view and its caches
// (registration order), then every logged base table (catalog order).
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
// base table not already in one. The serving layer calls it at attach
// time (and MaintainAll at every pinned round start) so snapshot readers
// are epoch-isolated from live storage from the very first batch. Epoch
// operations are uncharged, so counters are unaffected.
func (s *System) PinAllEpochs() { openEpochs(s.epochTables()) }

// openEpochs opens a maintenance epoch on each table not already in one and
// returns those it opened.
func openEpochs(tables []*storage.Handle) (opened []*storage.Handle) {
	for _, t := range tables {
		if !t.InEpoch() {
			t.BeginEpoch()
			opened = append(opened, t)
		}
	}
	return opened
}

// maintainAllParallel fans the registered views out over the worker pool,
// level by level: cascade levels are barriers (a child's diff feed is its
// parents' applied i-diffs, so level L starts only after every view of a
// lower level completed), while the views inside one level — independent
// subtrees by construction — still run concurrently. The feed gains the
// derived logs a level reads before the level fans out, on this goroutine;
// the workers only read it. On failure it
// reports the erroring view earliest in registration order, with the
// maintained (non-nil) reports of the views registered before it. Every
// view of the failing level has run to completion or to its own error, and
// later levels are skipped (they would consume a broken feed); MaintainAll
// then rolls back all of them, as it does after the sequential path's early
// return. Log reset, rollback and epoch release belong to MaintainAll.
func (s *System) maintainAllParallel(feed *diffFeed) ([]*Report, error) {
	n := len(s.order)
	reports := make([]*Report, n)
	errs := make([]error, n)
	shards := make([]rel.CostCounter, n)
	levels := make(map[int][]int)
	maxLevel := 0
	for i, name := range s.order {
		l := s.views[name].Level
		levels[l] = append(levels[l], i)
		if l > maxLevel {
			maxLevel = l
		}
	}
	for l := 0; l <= maxLevel; l++ {
		idxs := levels[l]
		if len(idxs) == 0 {
			continue
		}
		failed := false
		for _, i := range idxs {
			if errs[i] = feed.addSources(s.views[s.order[i]]); errs[i] != nil {
				failed = true
			}
		}
		if !failed {
			parallelFor(s.workers(), len(idxs), func(k int) {
				i := idxs[k]
				reports[i], errs[i] = s.maintain(s.views[s.order[i]], feed, s.execOptions(&shards[i]))
			})
			for _, i := range idxs {
				if errs[i] != nil {
					failed = true
				}
			}
		}
		if failed {
			break
		}
	}
	for i := range shards {
		s.DB.MergeCounter(shards[i])
	}
	// Registration order does not imply level order: a level-0 view may
	// register after a level-1 view, so a nil report (skipped level) can
	// precede the failing view in registration order. Locate the earliest
	// non-nil error first — walking reports and stopping at the first nil
	// would hide an error registered past a skipped view and let the
	// round commit as if it had succeeded.
	errIdx := -1
	for i := range errs {
		if errs[i] != nil {
			errIdx = i
			break
		}
	}
	var out []*Report
	for i, r := range reports {
		if errIdx >= 0 && i >= errIdx {
			break
		}
		if r != nil {
			out = append(out, r)
		}
	}
	if errIdx >= 0 {
		return out, errs[errIdx]
	}
	return out, nil
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
