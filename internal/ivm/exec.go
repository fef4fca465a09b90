package ivm

import (
	"fmt"
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
	// order, for plan-level diagnosis. The steps run one after another on one
	// goroutine, so Time is elapsed time and the steps' times add up to the
	// script's.
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

// ExecOptions configures one Δ-script execution. A script's steps always run
// in script order on the calling goroutine; System.Workers parallelises across
// views, never inside one script.
type ExecOptions struct {
	// Counter, when non-nil, receives all access charges of this run
	// instead of the database-wide counter. System.MaintainAll uses one
	// shard per view so concurrent maintenance runs never write one
	// counter; callers merge the shard back via db.Database.MergeCounter.
	Counter *rel.CostCounter
	// Interpret forces compute steps through the interpreted algebra.Eval
	// path even when a compiled plan is cached — the reference-oracle mode
	// the differential tests compare the compiled executor against.
	Interpret     bool
	Workers       int // ignored: kept because the frozen benchmark/trace.go assigns it
	OpWorkers     int // ignored: kept because the frozen benchmark/trace.go assigns it
	BatchSize     int // ignored: kept because the frozen benchmark/trace.go assigns it
	SkewThreshold int // ignored: kept because the frozen benchmark/trace.go assigns it
}

// scriptExec is the state of one script execution: the database, the script,
// the counter every stored access of the run is charged to, and the binding
// environment that compute steps extend — one representation, rel.Binding, for
// base i-diff instances and step results alike: compute steps read and write
// columns, and tuples are built at most once per binding, when an APPLY, the
// Eval oracle or the self-check asks. The steps run in script order on the
// calling goroutine, which owns the binding map; scriptExec is also the
// algebra.Env every step evaluates under.
type scriptExec struct {
	d         *db.Database
	s         *Script
	counter   *rel.CostCounter
	interpret bool
	// logDerived records the view's applies into the database's derived
	// modification log — set when the view is a cascade source (some other
	// registered view scans it).
	logDerived bool
	bind       map[string]*rel.Binding
}

// Table implements algebra.Env: a stored table, charging the run's counter.
func (x *scriptExec) Table(name string) (*storage.Handle, error) {
	t, err := x.d.Table(name)
	if err != nil {
		return nil, err
	}
	return t.WithCounter(x.counter), nil
}

// Bound implements algebra.Env.
func (x *scriptExec) Bound(name string) (*rel.Binding, error) {
	if r, ok := x.bind[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("ivm: unbound relation %q", name)
}

// RunScriptOpts executes a Δ-script against the database: base diff
// instances are passed as bindings keyed by BaseBindName; the script's compute
// steps evaluate plans and bind results; apply steps mutate caches and the
// view. opts picks the counter the run charges and the interpreted oracle. It
// opens and closes no epoch: the pre-state its plans read is the one the
// tables' epochs hold (System keeps every view, cache and logged base table
// in one for life).
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
	x := &scriptExec{d: d, s: s, counter: root, interpret: opts.Interpret,
		logDerived: d.DerivedLoggingEnabled(s.View), bind: bind}
	if _, err := d.Table(s.View); err != nil {
		return nil, fmt.Errorf("ivm: script target %q not materialized: %w", s.View, err)
	}
	for _, c := range s.Caches {
		if _, err := d.Table(c.Name); err != nil {
			return nil, fmt.Errorf("ivm: script target %q not materialized: %w", c.Name, err)
		}
	}

	pc := &PhaseCosts{Steps: make([]StepCost, 0, len(s.Steps))}
	for _, st := range s.Steps {
		if err := x.runStep(st, pc); err != nil {
			return nil, err
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

// runStep executes one step, charging its stored accesses to the run's
// counter, and adds what it did — accesses, rows, wall time, and for a view
// APPLY the applied instance — to pc.
func (x *scriptExec) runStep(step Step, pc *PhaseCosts) error {
	before := *x.counter
	start := time.Now()
	var name string
	var rows int
	switch st := step.(type) {
	case *ComputeStep:
		// The compiled plan cached at registration time is the hot path: it
		// binds its root batch, which the steps reading it take as columns.
		// Interpreted Eval remains the oracle (and the fallback for scripts
		// that were never compiled) and binds tuples.
		var r *rel.Binding
		var err error
		if st.compiled != nil && !x.interpret {
			r, err = st.compiled.Bind(x)
		} else {
			var tuples *rel.Relation
			if tuples, err = algebra.Eval(st.Plan, x); err == nil {
				r = rel.BindRelation(tuples)
			}
		}
		if err != nil {
			return fmt.Errorf("ivm: step %s: %w", st.Name, err)
		}
		x.bind[st.Name] = r
		name, rows = st.Name, r.Len()
	case *ApplyStep:
		bd, ok := x.bind[st.DiffName]
		if !ok {
			return fmt.Errorf("ivm: apply of unbound diff %q", st.DiffName)
		}
		r := bd.Relation() // the one place a step result becomes tuples
		t, err := x.Table(st.Table)
		if err != nil {
			return err
		}
		inst := &Instance{Schema: st.Diff, Rows: r}
		var n int
		if st.Table == x.s.View && x.logDerived {
			// The view is a cascade source: record the full images of every
			// row this APPLY touches, batched per step, in script order.
			var mods []db.Modification
			n, err = inst.ApplyLogged(t, func(m db.Modification) { mods = append(mods, m) })
			if err == nil {
				x.d.LogDerived(st.Table, mods)
			}
		} else {
			n, err = inst.Apply(t)
		}
		if err != nil {
			return fmt.Errorf("ivm: applying %s to %s: %w", st.DiffName, st.Table, err)
		}
		name, rows = "APPLY "+st.DiffName, n
		pc.RowsTouched += n
		if st.Table == x.s.View {
			pc.ViewDiffTuples += r.Len()
			pc.ViewRowsTouched += n
			if r.Len() > 0 {
				pc.Applied = append(pc.Applied, inst)
			}
		}
	default:
		return fmt.Errorf("ivm: unknown step type %T", step)
	}
	cost, dur := x.counter.Sub(before), time.Since(start)
	ph := step.Phase()
	pc.Cost[ph].Add(cost)
	pc.Time[ph] += dur
	pc.Steps = append(pc.Steps, StepCost{Step: name, Cost: cost, Rows: rows, Time: dur})
	return nil
}
