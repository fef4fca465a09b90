package ivm

import (
	"fmt"
	"sync"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// PhaseCosts records access counts and wall-clock time per maintenance
// phase — the stacked components of the paper's Figure 12.
type PhaseCosts struct {
	Cost [4]rel.CostCounter
	Time [4]time.Duration
	// RowsTouched counts view/cache rows modified by apply steps.
	RowsTouched int
	// ViewDiffTuples counts the diff tuples applied to the view itself
	// (|∆_V|, the denominator of the compression factor p of Section 6).
	ViewDiffTuples int
	// ViewRowsTouched counts the view rows modified (|D_V|).
	ViewRowsTouched int
	// Steps records each step's access counts, rows and wall time, in script
	// order, for plan-level diagnosis. Parallel runs attribute costs per step
	// exactly (each step charges a private counter shard), so Cost and Rows
	// are identical whatever the schedule; Time is a clock reading.
	Steps []StepCost
	// Applied lists the non-empty i-diff instances applied to the view
	// itself, in script order — the per-round delta feed that derived
	// (cascaded) views consume and Subscribe streams to consumers. An
	// instance that matched no rows applies nothing and is omitted. The
	// instances' rows are shared, not copied; treat them as read-only.
	Applied []*Instance
}

// StepCost is what one script step did: its charged accesses, the rows it
// produced (a compute step's result) or modified in its target (an APPLY),
// and the wall time it took — for a compute step without the tuple build a
// later APPLY may ask of its result, which that APPLY's Time carries.
type StepCost struct {
	Step string
	Cost rel.CostCounter
	Rows int
	Time time.Duration
}

// Total sums access counts across phases.
func (p *PhaseCosts) Total() rel.CostCounter {
	var c rel.CostCounter
	for i := range p.Cost {
		c.Add(p.Cost[i])
	}
	return c
}

// TotalTime sums wall time across phases.
func (p *PhaseCosts) TotalTime() time.Duration {
	var t time.Duration
	for i := range p.Time {
		t += p.Time[i]
	}
	return t
}

// ExecOptions configures one Δ-script execution.
type ExecOptions struct {
	// Workers bounds the executor's concurrency. 0 or 1 executes the steps
	// sequentially in script order (the legacy behavior); >1 schedules the
	// step-dependency DAG on that many pool workers, which preserves the
	// final view/cache state and the exact access counts of the sequential
	// run while overlapping independent steps.
	Workers int
	// Counter, when non-nil, receives all access charges of this run
	// instead of the database-wide counter. System.MaintainAll uses one
	// shard per view so concurrent maintenance runs never write one
	// counter; callers merge the shard back via db.Database.MergeCounter.
	Counter *rel.CostCounter
	// Interpret forces compute steps through the interpreted algebra.Eval
	// path even when a compiled plan is cached — the reference-oracle mode
	// the differential tests compare the compiled executor against.
	Interpret     bool
	OpWorkers     int // ignored: kept because the frozen benchmark/trace.go assigns it
	BatchSize     int // ignored: kept because the frozen benchmark/trace.go assigns it
	SkewThreshold int // ignored: kept because the frozen benchmark/trace.go assigns it
}

// scriptExec is the shared state of one script execution: the database,
// the script, and the binding environment that compute steps extend — one
// representation, rel.Binding, for base i-diff instances and step results
// alike: compute steps read and write columns, and tuples are built at most
// once per binding, when an APPLY, the Eval oracle or the self-check asks. The
// binding map is guarded for concurrent step execution; everything else is
// read-only during the run.
type scriptExec struct {
	d    *db.Database
	s    *Script
	opts ExecOptions
	// logDerived records the view's applies into the database's derived
	// modification log — set when the view is a cascade source (some other
	// registered view scans it).
	logDerived bool

	mu   sync.RWMutex
	bind map[string]*rel.Binding
}

func (x *scriptExec) getBind(name string) (*rel.Binding, bool) {
	x.mu.RLock()
	r, ok := x.bind[name]
	x.mu.RUnlock()
	return r, ok
}

func (x *scriptExec) setBind(name string, r *rel.Binding) {
	x.mu.Lock()
	x.bind[name] = r
	x.mu.Unlock()
}

// stepEnv is the algebra.Env one step evaluates under: bindings resolve
// from the shared execution state, stored tables resolve to handles
// charging this step's counter shard.
type stepEnv struct {
	x       *scriptExec
	counter *rel.CostCounter
}

// Table implements algebra.Env.
func (e *stepEnv) Table(name string) (*storage.Handle, error) {
	t, err := e.x.d.Table(name)
	if err != nil {
		return nil, err
	}
	return t.WithCounter(e.counter), nil
}

// Bound implements algebra.Env.
func (e *stepEnv) Bound(name string) (*rel.Binding, error) {
	if r, ok := e.x.getBind(name); ok {
		return r, nil
	}
	return nil, fmt.Errorf("ivm: unbound relation %q", name)
}

// RunScript executes a Δ-script against the database: base diff instances
// are passed as bindings keyed by BaseBindName; the script's compute steps
// evaluate plans and bind results; apply steps mutate caches and the view.
// Every view/cache table whose pre-state some step reads is placed in a
// maintenance epoch for the duration, so those plans may reference the
// pre-state at any point; tables nobody pre-reads get no epoch.
func RunScript(d *db.Database, s *Script, bindings map[string]*rel.Relation) (*PhaseCosts, error) {
	return runScript(d, s, bindRelations(s, bindings), false, ExecOptions{})
}

// RunScriptVerified is RunScript plus the Section 2 effectiveness
// self-check: after execution, every diff instance that was applied to
// the view is re-validated against the view's post-state (effective diffs
// are what make the apply order irrelevant). The extra probes are charged
// like any other access, so use it in tests, not in measured runs.
func RunScriptVerified(d *db.Database, s *Script, bindings map[string]*rel.Relation) (*PhaseCosts, error) {
	return runScript(d, s, bindRelations(s, bindings), true, ExecOptions{})
}

// RunScriptOpts is RunScript with explicit execution options (worker count
// and counter shard).
func RunScriptOpts(d *db.Database, s *Script, bindings map[string]*rel.Relation, opts ExecOptions) (*PhaseCosts, error) {
	return runScript(d, s, bindRelations(s, bindings), false, opts)
}

// bindRelations is the binding environment of a run whose caller brought
// its base instances as relations.
func bindRelations(s *Script, bindings map[string]*rel.Relation) map[string]*rel.Binding {
	bind := make(map[string]*rel.Binding, len(bindings)+len(s.Steps))
	for k, v := range bindings { //ivmlint:allow maprange — map-to-map copy, order-free
		bind[k] = rel.BindRelation(v)
	}
	return bind
}

// runScript executes s over bind, the base i-diff instances by name, which it
// takes over and extends with the steps' results.
func runScript(d *db.Database, s *Script, bind map[string]*rel.Binding, verify bool, opts ExecOptions) (*PhaseCosts, error) {
	root := opts.Counter
	if root == nil {
		root = d.Counter()
	}
	x := &scriptExec{d: d, s: s, opts: opts, logDerived: d.DerivedLoggingEnabled(s.View), bind: bind}
	// Open epochs on the view and caches — but only the ones some step
	// actually reads in pre-state (computed once per script). Opening is
	// O(1), but inside an epoch every first write to a row sets its
	// pre-image aside, and a table whose pre-state nobody reads gets
	// nothing from that. Counters are unaffected — epochs are uncharged.
	epochTables := []string{s.View}
	for _, c := range s.Caches {
		epochTables = append(epochTables, c.Name)
	}
	preRead := s.preReadTables()
	opened := make([]string, 0, len(epochTables))
	for _, name := range epochTables {
		t, err := d.Table(name)
		if err != nil {
			return nil, fmt.Errorf("ivm: script target %q not materialized: %w", name, err)
		}
		// Skip tables already in an epoch (e.g. pinned for the whole round
		// by System.MaintainAll under PinEpochs): their lifecycle belongs
		// to whoever opened them, and BeginEpoch would be a no-op anyway.
		if preRead[name] && !t.InEpoch() {
			t.BeginEpoch()
			opened = append(opened, name)
		}
	}
	defer func() {
		for _, name := range opened {
			if t, err := d.Table(name); err == nil {
				t.EndEpoch()
			}
		}
	}()

	var results []stepResult
	var err error
	if opts.Workers > 1 && len(s.Steps) > 1 {
		results, err = x.runDAG(opts.Workers, root)
	} else {
		results, err = x.runSeq(root)
	}
	if err != nil {
		return nil, err
	}

	pc := &PhaseCosts{}
	for i := range results {
		r := &results[i]
		st := s.Steps[r.idx]
		ph := st.Phase()
		pc.Cost[ph].Add(r.cost)
		pc.Time[ph] += r.dur
		pc.RowsTouched += r.rowsTouched
		pc.ViewDiffTuples += r.viewDiffTuples
		pc.ViewRowsTouched += r.viewRowsTouched
		name, rows := "", r.rows
		switch x := st.(type) {
		case *ComputeStep:
			name = x.Name
		case *ApplyStep:
			name, rows = "APPLY "+x.DiffName, r.rowsTouched
		}
		pc.Steps = append(pc.Steps, StepCost{Step: name, Cost: r.cost, Rows: rows, Time: r.dur})
		if r.applied != nil && r.applied.Len() > 0 {
			pc.Applied = append(pc.Applied, r.applied)
		}
	}
	if verify {
		vt, err := d.Table(s.View)
		if err != nil {
			return nil, err
		}
		vt = vt.WithCounter(root)
		for _, inst := range pc.Applied {
			ok, err := inst.IsEffective(vt)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("ivm: non-effective view diff applied: %s (%d tuples)",
					inst.Schema, inst.Len())
			}
		}
	}
	return pc, nil
}

// runSeq executes the steps in script order on the calling goroutine,
// charging root directly (per-step costs are exact deltas because nothing
// else charges root during the run).
func (x *scriptExec) runSeq(root *rel.CostCounter) ([]stepResult, error) {
	results := make([]stepResult, len(x.s.Steps))
	for i := range x.s.Steps {
		r := x.runStep(i, root)
		if r.err != nil {
			return nil, r.err
		}
		results[i] = r
	}
	return results, nil
}

// runStep executes one step, charging all of its stored accesses to the
// given counter, and reports the delta it caused.
func (x *scriptExec) runStep(i int, counter *rel.CostCounter) stepResult {
	res := stepResult{idx: i}
	env := &stepEnv{x: x, counter: counter}
	before := *counter
	start := time.Now()
	switch st := x.s.Steps[i].(type) {
	case *ComputeStep:
		// The compiled plan cached at registration time is the hot path: it
		// binds its root batch, which the steps reading it take as columns.
		// Interpreted Eval remains the oracle (and the fallback for scripts
		// that were never compiled) and binds tuples.
		var r *rel.Binding
		var err error
		if st.compiled != nil && !x.opts.Interpret {
			r, err = st.compiled.Bind(env)
		} else {
			var tuples *rel.Relation
			if tuples, err = algebra.Eval(st.Plan, env); err == nil {
				r = rel.BindRelation(tuples)
			}
		}
		if err != nil {
			res.err = fmt.Errorf("ivm: step %s: %w", st.Name, err)
			return res
		}
		x.setBind(st.Name, r)
		res.rows = r.Len()
	case *ApplyStep:
		bd, ok := x.getBind(st.DiffName)
		if !ok {
			res.err = fmt.Errorf("ivm: apply of unbound diff %q", st.DiffName)
			return res
		}
		r := bd.Relation() // the one place a step result becomes tuples
		t, err := env.Table(st.Table)
		if err != nil {
			res.err = err
			return res
		}
		inst := &Instance{Schema: st.Diff, Rows: r}
		var n int
		if st.Table == x.s.View && x.logDerived {
			// The view is a cascade source: record the full images of every
			// row this APPLY touches, batched per step so the derived log's
			// order is the apply-step chain order whatever the schedule.
			var mods []db.Modification
			n, err = inst.ApplyLogged(t, func(m db.Modification) { mods = append(mods, m) })
			if err == nil {
				x.d.LogDerived(st.Table, mods)
			}
		} else {
			n, err = inst.Apply(t)
		}
		if err != nil {
			res.err = fmt.Errorf("ivm: applying %s to %s: %w", st.DiffName, st.Table, err)
			return res
		}
		res.rowsTouched = n
		if st.Table == x.s.View {
			res.viewDiffTuples = r.Len()
			res.viewRowsTouched = n
			res.applied = inst
		}
	default:
		res.err = fmt.Errorf("ivm: unknown step type %T", x.s.Steps[i])
		return res
	}
	res.cost = counter.Sub(before)
	res.dur = time.Since(start)
	return res
}
