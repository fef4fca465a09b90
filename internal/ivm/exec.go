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
	// instance that matched no rows applies nothing and is omitted. Each
	// holds the binding its APPLY read, shared, not copied: its rows are
	// columns until a reader asks Instance.Tuples for tuples. Treat them as
	// read-only.
	Applied []*Instance
}

// StepCost is what one script step did: its charged accesses, the rows it
// produced (a compute step's result) or modified in its target (an APPLY),
// and the wall time it took.
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
	// Interpret runs compute steps through the interpreted algebra.Eval
	// oracle instead of their compiled plans — the mode the differential
	// tests compare the compiled executor against.
	Interpret     bool
	Workers       int // ignored: kept because the frozen benchmark/trace.go assigns it
	OpWorkers     int // ignored: kept because the frozen benchmark/trace.go assigns it
	BatchSize     int // ignored: kept because the frozen benchmark/trace.go assigns it
	SkewThreshold int // ignored: kept because the frozen benchmark/trace.go assigns it
}

// scriptExec is the state of one script execution: the database, the
// compiled script, the counter every stored access of the run is charged to,
// and the run's environment by position — slots, the bindings (one
// representation, rel.Binding, for base i-diff instances and step results
// alike: compute steps and APPLY statements read columns, and tuples are
// built at most once per binding, when the Eval oracle, the self-check or a
// reader of an applied instance asks),
// and tables, the script's stored tables. The steps run in script order on
// the calling goroutine, which owns both; scriptExec is also the algebra.Env
// every step evaluates under, resolving names through the script's maps.
type scriptExec struct {
	d         *db.Database
	s         *Script
	counter   *rel.CostCounter
	interpret bool
	// logDerived records the view's applies into the database's derived
	// modification log — set when the view is a cascade source (some other
	// registered view scans it).
	logDerived bool
	slots      []*rel.Binding
	tables     []*storage.Handle
}

// Table implements algebra.Env.
func (x *scriptExec) Table(name string) (*storage.Handle, error) {
	if i, ok := x.s.tableOf[name]; ok {
		return x.tables[i], nil
	}
	return nil, fmt.Errorf("ivm: table %q is not one of the script's", name)
}

// Bound implements algebra.Env.
func (x *scriptExec) Bound(name string) (*rel.Binding, error) {
	if i, ok := x.s.slotOf[name]; ok && x.slots[i] != nil {
		return x.slots[i], nil
	}
	return nil, fmt.Errorf("ivm: unbound relation %q", name)
}

// RunScriptOpts executes a compiled Δ-script against the database: base diff
// instances are passed as relations keyed by BaseBindName (a hand-built
// script's other inputs by their names); the script's compute steps evaluate
// plans and bind results; apply steps mutate caches and the view. opts picks
// the counter the run charges and the interpreted oracle. It opens and closes
// no epoch: the pre-state its plans read is the one the tables' epochs hold
// (System keeps every view, cache and logged base table in one for life).
func RunScriptOpts(d *db.Database, s *Script, bindings map[string]*rel.Relation, opts ExecOptions) (*PhaseCosts, error) {
	slots, err := inputSlots(s, bindings)
	if err != nil {
		return nil, err
	}
	return runScript(d, s, slots, false, opts)
}

// inputSlots is the slots of a run of s with the caller's relations bound.
func inputSlots(s *Script, bindings map[string]*rel.Relation) ([]*rel.Binding, error) {
	if s.slotOf == nil {
		return nil, fmt.Errorf("ivm: the Δ-script for %s was never compiled (run CompileScript)", s.View)
	}
	slots := make([]*rel.Binding, len(s.slots))
	for _, i := range s.inputs {
		r, ok := bindings[s.slots[i]]
		if !ok {
			return nil, fmt.Errorf("ivm: unbound diff relation %q", s.slots[i])
		}
		slots[i] = rel.BindRelation(r)
	}
	return slots, nil
}

// runScript executes the compiled script s over slots, one per binding of s
// with its inputs bound, which the compute steps fill. The script's tables
// are resolved once, charging the run's counter, and the steps run by
// position.
func runScript(d *db.Database, s *Script, slots []*rel.Binding, verify bool, opts ExecOptions) (*PhaseCosts, error) {
	root := opts.Counter
	if root == nil {
		root = d.Counter()
	}
	x := &scriptExec{d: d, s: s, counter: root, interpret: opts.Interpret,
		logDerived: d.DerivedLoggingEnabled(s.View), slots: slots, tables: make([]*storage.Handle, len(s.tables))}
	for i, name := range s.tables {
		t, err := d.Table(name)
		if err != nil {
			return nil, fmt.Errorf("ivm: script table %q not materialized: %w", name, err)
		}
		x.tables[i] = t.WithCounter(root)
	}

	pc := &PhaseCosts{Steps: make([]StepCost, 0, len(s.Steps))}
	for _, st := range s.Steps {
		if err := x.runStep(st, pc); err != nil {
			return nil, err
		}
	}
	if verify {
		if err := x.verifyApplied(); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// verifyApplied is the self-check of a verifying run: every non-empty i-diff
// instance the script applied to its view must be effective against the
// view's post-state. It reads the instances as tuples, the one place in the
// executor that builds them; its lookups are charged like any other.
func (x *scriptExec) verifyApplied() error {
	for _, st := range x.s.Steps {
		if a, ok := st.(*ApplyStep); ok && a.table == 0 && x.slots[a.src].Len() > 0 {
			rows := x.slots[a.src].Relation().Tuples
			ok, err := isEffective(x.tables[0], &a.Diff, rows, &a.cols)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("ivm: non-effective view diff applied: %s (%d tuples)", a.Diff, len(rows))
			}
		}
	}
	return nil
}

// runStep executes one step, charging its stored accesses to the run's
// counter, and adds what it did — accesses, rows, wall time, and for a view
// APPLY the applied instance — to pc. An APPLY over an empty binding only
// records its zero cost.
func (x *scriptExec) runStep(step Step, pc *PhaseCosts) error {
	before := *x.counter
	start := time.Now()
	var name string
	var rows int
	switch st := step.(type) {
	case *ComputeStep:
		// The plan compiled at registration is the one production path and
		// binds columns; Eval, binding tuples, is the Interpret oracle only.
		var r *rel.Binding
		var err error
		if x.interpret {
			var tuples *rel.Relation
			if tuples, err = algebra.Eval(st.Plan, x); err == nil {
				r = rel.BindRelation(tuples)
			}
		} else {
			r, err = st.compiled.Bind(x)
		}
		if err != nil {
			return fmt.Errorf("ivm: step %s: %w", st.Name, err)
		}
		x.slots[st.slot] = r
		name, rows = st.Name, r.Len()
	case *ApplyStep:
		name = st.name
		src := x.slots[st.src]
		if src.Len() == 0 {
			break
		}
		view := st.table == 0
		var rec func(db.Modification)
		var mods []db.Modification
		if view && x.logDerived {
			// The view is a cascade source: record the full images of every
			// row this APPLY touches, batched per step, in script order.
			rec = func(m db.Modification) { mods = append(mods, m) }
		}
		var err error
		// The statement reads the step's columns: no step result becomes
		// tuples on the maintenance path.
		if rows, err = applyRows(x.tables[st.table], &st.Diff, src.Batch(), &st.cols, rec); err != nil {
			return fmt.Errorf("ivm: applying %s to %s: %w", st.DiffName, st.Table, err)
		}
		if rec != nil {
			x.d.LogDerived(st.Table, mods)
		}
		pc.RowsTouched += rows
		if view {
			pc.ViewDiffTuples += src.Len()
			pc.ViewRowsTouched += rows
			pc.Applied = append(pc.Applied, &Instance{Schema: st.Diff, bound: src})
		}
	}
	cost, dur := x.counter.Sub(before), time.Since(start)
	ph := step.Phase()
	pc.Cost[ph].Add(cost)
	pc.Time[ph] += dur
	pc.Steps = append(pc.Steps, StepCost{Step: name, Cost: cost, Rows: rows, Time: dur})
	return nil
}
