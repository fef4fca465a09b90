package ivm

import (
	"fmt"
	"slices"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Phase attributes each script step to one of the cost components the
// paper's Figure 12 breaks maintenance time into.
type Phase uint8

// The four cost phases.
const (
	PhaseCacheCompute Phase = iota // computing diffs for intermediate caches
	PhaseCacheUpdate               // applying diffs to intermediate caches
	PhaseViewCompute               // computing the view's diffs
	PhaseViewUpdate                // applying diffs to the materialized view
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseCacheCompute:
		return "cache-diff-computation"
	case PhaseCacheUpdate:
		return "cache-update"
	case PhaseViewCompute:
		return "view-diff-computation"
	default:
		return "view-update"
	}
}

// Step is one statement of a Δ-script.
type Step interface {
	Phase() Phase
	String() string
}

// ComputeStep evaluates a plan and binds the result under Name. Diff is
// nil for transient intermediates (ΔG, ΔK, ΔR, …; see gen.share).
type ComputeStep struct {
	Name string
	Diff *DiffSchema
	Plan algebra.Node
	Ph   Phase

	// compiled is the step's executable plan, built once by CompileScript
	// (RegisterView calls it); without one the step fails unless interpreted.
	compiled *algebra.ExecPlan
}

// Phase implements Step.
func (s *ComputeStep) Phase() Phase { return s.Ph }

// String implements Step.
func (s *ComputeStep) String() string {
	if s.Diff != nil {
		return fmt.Sprintf("%s := %s  -- %s", s.Name, s.Plan, s.Diff)
	}
	return fmt.Sprintf("%s := %s", s.Name, s.Plan)
}

// ApplyStep applies a previously computed diff instance to a stored table
// (a cache or the view) with the APPLY semantics of Section 2.
type ApplyStep struct {
	Table    string
	DiffName string
	Diff     DiffSchema
	Ph       Phase
}

// Phase implements Step.
func (s *ApplyStep) Phase() Phase { return s.Ph }

// String implements Step.
func (s *ApplyStep) String() string {
	return fmt.Sprintf("APPLY %s TO %s", s.DiffName, s.Table)
}

// CacheDef declares an intermediate cache: a materialization of the plan
// rooted at some subview, created at view definition time and maintained
// by the Δ-script (Section 4, Example 4.6).
type CacheDef struct {
	Name string
	Plan algebra.Node
}

// Script is a compiled Δ-script (or D-script in tuple mode): the ordered
// steps maintaining a single view, plus the caches it relies on and the
// base-table diff schemas it consumes.
type Script struct {
	View      string
	ViewPlan  algebra.Node
	Steps     []Step
	Caches    []CacheDef
	Base      BaseDiffSchemas
	TupleMode bool
	// Minimized records whether pass 4 (Minimize) ran on this script; the
	// verifier only enforces the Figure 8 residue checks when it did.
	Minimized bool
}

// CompileScript builds and caches one executable plan per compute step —
// the compile-once contract: column positions, predicate bindings, equi
// pairs and probe strategies are resolved here, at registration time, and
// every maintenance round reuses them. Apply steps have no plan and are
// unaffected. Calling it again recompiles (scripts are never mutated after
// generation, so this is only useful for tests).
func CompileScript(s *Script) error {
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok {
			var err error
			if cs.compiled, err = algebra.Compile(cs.Plan); err != nil {
				return fmt.Errorf("ivm: compiling step %s: %w", cs.Name, err)
			}
		}
	}
	return nil
}

// String renders the script for inspection.
func (s *Script) String() string {
	out := fmt.Sprintf("-- Δ-script for %s (tupleMode=%v)\n", s.View, s.TupleMode)
	for _, table := range s.Base.Tables() {
		for i, ds := range s.Base[table] {
			out += fmt.Sprintf("BASE %s := %s\n", BaseBindName(table, i), ds)
		}
	}
	for _, c := range s.Caches {
		out += fmt.Sprintf("CACHE %s := %s\n", c.Name, c.Plan)
	}
	for _, st := range s.Steps {
		out += st.String() + "\n"
	}
	return out
}

// BaseBindName is the executor binding name of the i-th diff schema of a
// base table.
func BaseBindName(table string, i int) string { return fmt.Sprintf("base:%s:%d", table, i) }

// GenOptions tune Δ-script generation, mostly for ablation studies.
type GenOptions struct {
	// NoMinimize skips pass 4 (semantic minimization + join
	// linearization), leaving the raw composed rule plans.
	NoMinimize bool
	// NoCache disables intermediate caches for aggregates; the rules then
	// consult the base tables directly (the "without cache both
	// approaches perform identically" setting of Section 6.2).
	NoCache bool
}

// gen carries the Δ-script generator's state across the plan traversal.
type gen struct {
	viewTable string
	tupleMode bool
	opts      GenOptions
	base      BaseDiffSchemas
	steps     []Step
	// pending holds apply steps whose emission is deferred so that
	// pre-state-only computations (the blocking γ's combined delta) can be
	// scheduled before the target table mutates — keeping the epoch's
	// pre==post index sharing effective.
	pending  []Step
	caches   []CacheDef
	seq      int
	cacheSeq int
}

// flushPending emits any deferred apply steps. Idempotent.
func (g *gen) flushPending() {
	g.steps = append(g.steps, g.pending...)
	g.pending = nil
}

// share binds plan to a transient intermediate and returns a reference to
// it: a compute step without a diff schema that is never applied, lives for
// one round, and is charged once however many plans read it. The γ rules
// name the intermediates their dispatch is built from this way (ΔK, ΔR,
// ΔG); shareRepeats finds every other repeat. A plan reading a stored
// post-state goes behind the deferred applies, any other ahead of them.
func (g *gen) share(prefix string, plan algebra.Node, ph Phase) algebra.Node {
	for _, l := range planLeaves(plan) {
		if l.Kind == leafStored && l.St == rel.StatePost {
			g.flushPending()
			break
		}
	}
	name := g.fresh(prefix)
	g.steps = append(g.steps, &ComputeStep{Name: name, Plan: plan, Ph: ph})
	return algebra.NewRelRef(name, plan.Schema())
}

// shareRepeats closes generation: while a diff-driven sub-plan is evaluated
// twice against one state (repeatedSubplan), it moves the sub-plan into a
// transient step ΔS in front of its first reader — everything it reads is
// bound there, and no apply separates the two — and points the readers at
// it. Composition and join linearization decide what ends up repeated (the
// diffs a join emits for a join-attribute update, both images of a
// key-moving diff, a view that contains one sub-expression twice), so the
// repeats are collected here, on the final plans, not rule by rule.
func (g *gen) shareRepeats() {
	memo := newSubplans()
	for {
		prev, at, sub := repeatedSubplan(g.steps, memo)
		if sub == nil {
			return
		}
		id := memo.of(sub).id
		src := g.steps[prev].(*ComputeStep)
		if src.Diff != nil || memo.of(src.Plan).id != id { // not a step of its own yet
			src = &ComputeStep{Name: g.fresh("ΔS"), Plan: sub, Ph: src.Ph}
			g.steps = slices.Insert(g.steps, prev, Step(src))
			at++
		}
		ref := algebra.NewRelRef(src.Name, sub.Schema())
		var replace func(n algebra.Node) algebra.Node
		replace = func(n algebra.Node) algebra.Node {
			if sp := memo.of(n); sp.id == id {
				return ref
			} else if !sp.driven() { // nor is anything below it
				return n
			}
			return mapChildren(n, replace)
		}
		for _, st := range g.steps[prev+1 : at+1] {
			if cs, ok := st.(*ComputeStep); ok {
				cs.Plan = replace(cs.Plan)
			}
		}
	}
}

func (g *gen) fresh(prefix string) string {
	g.seq++
	return fmt.Sprintf("%s%d", prefix, g.seq)
}

func (g *gen) freshCache() string {
	g.cacheSeq++
	return fmt.Sprintf("cache:%s:%d", g.viewTable, g.cacheSeq)
}

// Generate runs passes 1–4 of the Δ-script generation algorithm for the
// given view plan and base diff schemas. In tuple mode it produces the
// tuple-based D-script instead: every diff carries the full output schema
// of its subview (forcing the base-table joins of prior IVM approaches)
// and no intermediate caches are created.
func Generate(viewTable string, plan algebra.Node, base BaseDiffSchemas, tupleMode bool, opts ...GenOptions) (*Script, error) {
	var o GenOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	// Pass 1: ID inference / plan extension.
	fixed, err := algebra.EnsureIDs(plan)
	if err != nil {
		return nil, fmt.Errorf("ivm: pass 1 (ID inference): %w", err)
	}
	g := &gen{viewTable: viewTable, tupleMode: tupleMode, opts: o, base: base}

	// Passes 2–3: rule instantiation and composition, on the plan with its
	// derived aggregates rewritten. ViewPlan stays the plan as written: it
	// is what the view is checked against.
	decls, _, err := g.node(g.normalizeAggs(fixed), &mat{name: viewTable, schema: fixed.Schema()})
	if err != nil {
		return nil, err
	}
	g.emit(viewTable, decls, PhaseViewCompute, PhaseViewUpdate)

	s := &Script{
		View:      viewTable,
		ViewPlan:  fixed,
		Steps:     g.steps,
		Caches:    g.caches,
		Base:      base,
		TupleMode: tupleMode,
	}
	// Pass 4: semantic minimization.
	if !o.NoMinimize {
		Minimize(s)
	}
	g.shareRepeats()
	s.Steps = g.steps
	return s, nil
}

// mat describes a materialization target for a subview (the view itself or
// an intermediate cache).
type mat struct {
	name   string
	schema rel.Schema
}

// emit appends ComputeSteps for each decl followed by ApplySteps against
// the target table, ordering applies delete → update → insert.
func (g *gen) emit(table string, decls []decl, computePh, applyPh Phase) {
	g.emitAndRef(table, decls, computePh, applyPh)
	g.flushPending()
}

// materializeDecls converts freshly emitted decls into reference decls
// whose plans read the computed instances back.
func refDecls(decls []decl, names []string) []decl {
	out := make([]decl, len(decls))
	for i, d := range decls {
		out[i] = decl{schema: d.schema, plan: algebra.NewRelRef(names[i], d.schema.RelSchema())}
	}
	return out
}

// emitAndRef emits compute steps for decls against a cache table, queues
// their apply steps as pending (flushed by the consuming operator once its
// pre-state-only computations are scheduled), and returns reference decls
// for further propagation.
func (g *gen) emitAndRef(table string, decls []decl, computePh, applyPh Phase) []decl {
	g.flushPending()
	var names []string
	renamed := make([]decl, len(decls))
	for i, d := range decls {
		n := g.fresh("Δ")
		ds := d.schema
		ds.Rel = table
		g.steps = append(g.steps, &ComputeStep{Name: n, Diff: &ds, Plan: d.plan, Ph: computePh})
		names = append(names, n)
		renamed[i] = decl{schema: ds, plan: d.plan}
	}
	for _, want := range []DiffType{DiffDelete, DiffUpdate, DiffInsert} {
		for i, d := range renamed {
			if d.schema.Type == want {
				g.pending = append(g.pending, &ApplyStep{Table: table, DiffName: names[i], Diff: d.schema, Ph: applyPh})
			}
		}
	}
	return refDecls(renamed, names)
}

// node is the pass-2/3 recursion: it returns the symbolic diffs flowing
// out of n, plus the materialization-aware plan for n (with cached
// subviews replaced by stored references), suitable for Input_pre/post.
// out is non-nil only when the caller materializes n's output (the root
// view); aggregation nodes use it as their Output keyword target.
func (g *gen) node(n algebra.Node, out *mat) ([]decl, algebra.Node, error) {
	switch x := n.(type) {
	case *algebra.Scan:
		return g.scanDecls(x), x, nil

	case *algebra.Select:
		ins, childMat, err := g.node(x.Child, nil)
		if err != nil {
			return nil, nil, err
		}
		matPlan := &algebra.Select{Child: childMat, Pred: x.Pred}
		input := recomputeInput(childMat)
		var outs []decl
		for _, in := range ins {
			ds, err := g.selectRules(x, in, input)
			if err != nil {
				return nil, nil, err
			}
			outs = append(outs, ds...)
		}
		return outs, matPlan, nil

	case *algebra.Project:
		ins, childMat, err := g.node(x.Child, nil)
		if err != nil {
			return nil, nil, err
		}
		matPlan := &algebra.Project{Child: childMat, Items: x.Items}
		input := recomputeInput(childMat)
		var outs []decl
		for _, in := range ins {
			ds, err := g.projectRules(x, in, input)
			if err != nil {
				return nil, nil, err
			}
			outs = append(outs, ds...)
		}
		return outs, matPlan, nil

	case *algebra.UnionAll:
		lIns, lMat, err := g.node(x.Left, nil)
		if err != nil {
			return nil, nil, err
		}
		rIns, rMat, err := g.node(x.Right, nil)
		if err != nil {
			return nil, nil, err
		}
		matPlan := &algebra.UnionAll{Left: lMat, Right: rMat, BranchAttr: x.BranchAttr}
		var outs []decl
		for _, in := range lIns {
			outs = append(outs, g.unionRules(x, in, 0))
		}
		for _, in := range rIns {
			outs = append(outs, g.unionRules(x, in, 1))
		}
		return outs, matPlan, nil

	case *algebra.Join:
		return g.binaryNode(x, x.Left, x.Right,
			func(l, r algebra.Node) algebra.Node { return &algebra.Join{Left: l, Right: r, Pred: x.Pred} },
			func(in decl, fromLeft bool, li, ri inputFn) ([]decl, error) {
				return g.joinRules(x, in, fromLeft, li, ri)
			})

	case *algebra.SemiJoin:
		return g.binaryNode(x, x.Left, x.Right,
			func(l, r algebra.Node) algebra.Node { return &algebra.SemiJoin{Left: l, Right: r, Pred: x.Pred} },
			func(in decl, fromLeft bool, li, ri inputFn) ([]decl, error) {
				return g.semiRules(x.Pred, x.Left, x.Right, in, fromLeft, li, ri, true)
			})

	case *algebra.AntiJoin:
		return g.binaryNode(x, x.Left, x.Right,
			func(l, r algebra.Node) algebra.Node { return &algebra.AntiJoin{Left: l, Right: r, Pred: x.Pred} },
			func(in decl, fromLeft bool, li, ri inputFn) ([]decl, error) {
				return g.semiRules(x.Pred, x.Left, x.Right, in, fromLeft, li, ri, false)
			})

	case *algebra.GroupBy:
		return g.groupNode(x, out)

	default:
		return nil, nil, fmt.Errorf("ivm: unsupported operator %T", n)
	}
}

func (g *gen) binaryNode(n algebra.Node, l, r algebra.Node,
	rebuild func(l, r algebra.Node) algebra.Node,
	rules func(in decl, fromLeft bool, li, ri inputFn) ([]decl, error),
) ([]decl, algebra.Node, error) {
	lIns, lMat, err := g.node(l, nil)
	if err != nil {
		return nil, nil, err
	}
	rIns, rMat, err := g.node(r, nil)
	if err != nil {
		return nil, nil, err
	}
	matPlan := rebuild(lMat, rMat)
	li, ri := recomputeInput(lMat), recomputeInput(rMat)
	var outs []decl
	for _, in := range lIns {
		ds, err := rules(in, true, li, ri)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, ds...)
	}
	for _, in := range rIns {
		ds, err := rules(in, false, li, ri)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, ds...)
	}
	return outs, matPlan, nil
}

// groupNode handles aggregation: input cache creation (idIVM mode), rule
// dispatch between the incremental sum/count path and the general
// recompute path, and output materialization (out-cache for interior γs).
func (g *gen) groupNode(x *algebra.GroupBy, out *mat) ([]decl, algebra.Node, error) {
	ins, childMat, err := g.node(x.Child, nil)
	if err != nil {
		return nil, nil, err
	}

	// Input materialization: idIVM materializes the aggregate's input as an
	// intermediate cache unless the input is a base table (Example 4.6).
	var input inputFn
	if g.tupleMode || g.opts.NoCache {
		input = recomputeInput(childMat)
	} else if _, isScan := childMat.(*algebra.Scan); isScan {
		input = recomputeInput(childMat)
	} else if _, isRef := childMat.(*algebra.RelRef); isRef {
		// Child is already materialized (an out-cache of a deeper γ).
		input = recomputeInput(childMat)
	} else {
		cname := g.freshCache()
		g.caches = append(g.caches, CacheDef{Name: cname, Plan: childMat})
		ins = g.emitAndRef(cname, ins, PhaseCacheCompute, PhaseCacheUpdate)
		for i := range ins {
			ins[i].schema.Rel = cname
		}
		input = storedInput(cname, childMat.Schema())
		childMat = algebra.NewStoredRef(cname, childMat.Schema(), rel.StatePost)
	}

	selfPlan := &algebra.GroupBy{Child: childMat, Keys: x.Keys, Aggs: x.Aggs}

	// Output materialization.
	var output inputFn
	var outName string
	interior := out == nil
	if !interior {
		outName = out.name
		output = storedInput(out.name, selfPlan.Schema())
	} else if !g.tupleMode && !g.opts.NoCache {
		outName = g.freshCache()
		g.caches = append(g.caches, CacheDef{Name: outName, Plan: selfPlan})
		output = storedInput(outName, selfPlan.Schema())
	} else {
		// Tuple mode (or caches disabled), interior γ: old values come
		// from recomputation.
		output = recomputeInput(selfPlan)
	}

	ph := PhaseViewCompute
	if interior && !g.tupleMode {
		ph = PhaseCacheCompute
	}
	outs, err := g.groupRules(x, ins, input, output, ph)
	if err != nil {
		return nil, nil, err
	}
	g.flushPending()

	if interior {
		if !g.tupleMode && !g.opts.NoCache {
			outs = g.emitAndRef(outName, outs, PhaseCacheCompute, PhaseCacheUpdate)
			return outs, algebra.NewStoredRef(outName, selfPlan.Schema(), rel.StatePost), nil
		}
		return outs, selfPlan, nil
	}
	return outs, algebra.NewStoredRef(out.name, selfPlan.Schema(), rel.StatePost), nil
}

// scanDecls instantiates the scan-level decls: each base-table diff schema
// lifted to the scan's qualified attribute names (pass 2 for SCAN nodes;
// repeated per alias, footnote 5).
func (g *gen) scanDecls(s *algebra.Scan) []decl {
	var out []decl
	for i, ds := range g.base[s.Table] {
		bind := BaseBindName(s.Table, i)
		ref := algebra.NewRelRef(bind, ds.RelSchema())

		qds := DiffSchema{
			Type: ds.Type,
			Rel:  s.Alias,
			IDs:  rel.Qualify(s.Alias, ds.IDs),
			Pre:  rel.Qualify(s.Alias, ds.Pre),
			Post: rel.Qualify(s.Alias, ds.Post),
		}
		// Rename bare diff columns to qualified ones.
		var items []algebra.ProjItem
		for k, id := range ds.IDs {
			items = append(items, algebra.ProjItem{E: expr.C(id), As: qds.IDs[k]})
		}
		for k, a := range ds.Pre {
			items = append(items, algebra.ProjItem{E: expr.C(PreName(a)), As: PreName(qds.Pre[k])})
		}
		for k, a := range ds.Post {
			items = append(items, algebra.ProjItem{E: expr.C(PostName(a)), As: PostName(qds.Post[k])})
		}
		out = append(out, decl{schema: qds, plan: algebra.NewProject(ref, items)})
	}
	return out
}
