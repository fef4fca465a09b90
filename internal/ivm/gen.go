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

	// compiled is the step's executable plan and slot the position a run
	// binds its result at, both set by CompileScript.
	compiled *algebra.ExecPlan
	slot     int
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

	// Set by CompileScript: src is the slot the diff is read from, table the
	// target's position in the script's tables, cols the diff's columns and
	// name the step's StepCost name.
	src, table int
	cols       applyCols
	name       string
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
	View     string
	ViewPlan algebra.Node
	// CachedPlan is ViewPlan over the script's caches: every cached subview
	// read from its cache, and a γ view's γ over its input cache. It has
	// ViewPlan's attributes and key (Verify checks), and RegisterView
	// materializes the view from it once the caches are loaded, so a join a
	// cache holds is not run a second time. ViewPlan stays the oracle.
	CachedPlan algebra.Node
	Steps      []Step
	Caches     []CacheDef
	Base       BaseDiffSchemas
	TupleMode  bool
	// Minimized records whether pass 4 (Minimize) ran on this script; the
	// verifier only enforces the Figure 8 residue checks when it did.
	Minimized bool

	// Set by CompileScript. slots names the bindings a run holds, by
	// position: the base i-diffs a step reads first, in Base.Tables() order,
	// then each step's result and each name read before any step computes it
	// (a hand-built script's input) in script order; inputs lists the slots
	// the caller binds. tables names every stored table the script reads or
	// writes, the view first and its caches next. slotOf and tableOf invert
	// slots and tables.
	slots, tables   []string
	slotOf, tableOf map[string]int
	inputs          []int
}

// CompileScript turns the script into what a run executes, once, at
// registration — the compile-once contract: every binding name becomes a
// slot, every stored table a position in the script's tables, each compute
// step gets its executable plan (column positions, predicate bindings, equi
// pairs and probe strategies resolved) and each APPLY its ID, SET and source
// column positions. A round then works on positions only. An unknown step, a
// binding defined twice or read before the step computing it, or an APPLY
// whose columns do not resolve fails here. Calling it again recompiles.
func CompileScript(s *Script) error {
	s.slots, s.tables, s.inputs = nil, nil, nil
	s.slotOf, s.tableOf = map[string]int{}, map[string]int{}
	slot := func(name string) int {
		s.slotOf[name] = len(s.slots)
		s.slots = append(s.slots, name)
		return len(s.slots) - 1
	}
	input := func(name string) {
		if _, ok := s.slotOf[name]; !ok {
			s.inputs = append(s.inputs, slot(name))
		}
	}
	table := func(name string) int {
		if _, ok := s.tableOf[name]; !ok {
			s.tableOf[name] = len(s.tables)
			s.tables = append(s.tables, name)
		}
		return s.tableOf[name]
	}
	// An insert builds rows in the attribute order of the plan RegisterView
	// materialized its target from.
	plans := map[string]algebra.Node{s.View: s.ViewPlan}
	table(s.View)
	for _, c := range s.Caches {
		plans[c.Name] = c.Plan
		table(c.Name)
	}
	// A base i-diff no step reads is not an input: no run binds it, and a
	// System neither registers nor populates it for this script.
	read := map[string]bool{}
	for _, st := range s.Steps {
		switch x := st.(type) {
		case *ComputeStep:
			for _, l := range planLeaves(x.Plan) {
				if l.Kind == leafBinding {
					read[l.Name] = true
				}
			}
		case *ApplyStep:
			read[x.DiffName] = true
		}
	}
	for _, t := range s.Base.Tables() {
		for i := range s.Base[t] {
			if name := BaseBindName(t, i); read[name] {
				input(name)
			}
		}
	}
	computed := map[string]rel.Schema{}
	for _, st := range s.Steps {
		var err error
		switch x := st.(type) {
		case *ComputeStep:
			for _, l := range planLeaves(x.Plan) {
				if l.Kind == leafBinding {
					input(l.Name)
				} else {
					table(l.Name)
				}
			}
			if _, dup := s.slotOf[x.Name]; dup {
				return fmt.Errorf("ivm: step %s: binding defined twice or read before it is computed", x.Name)
			}
			if x.compiled, err = algebra.Compile(x.Plan); err != nil {
				return fmt.Errorf("ivm: compiling step %s: %w", x.Name, err)
			}
			x.slot, computed[x.Name] = slot(x.Name), x.Plan.Schema()
		case *ApplyStep:
			input(x.DiffName)
			src, ok := computed[x.DiffName]
			if !ok { // a caller's input
				src = x.Diff.RelSchema()
			}
			// A target without a plan (a hand-built script's) is in the diff's order.
			target := rel.NewSchema(append(slices.Clip(x.Diff.IDs), x.Diff.Post...), x.Diff.IDs)
			if p := plans[x.Table]; p != nil {
				target = p.Schema()
			}
			x.src, x.table, x.name = s.slotOf[x.DiffName], table(x.Table), "APPLY "+x.DiffName
			if x.cols, err = resolveApply(x.Diff, src, target); err != nil {
				return fmt.Errorf("ivm: APPLY %s TO %s: %w", x.DiffName, x.Table, err)
			}
		default:
			return fmt.Errorf("ivm: unknown step type %T", st)
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
			return algebra.MapChildren(n, replace)
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
	decls, cached, err := g.node(g.normalizeAggs(fixed), &mat{name: viewTable, schema: fixed.Schema()})
	if err != nil {
		return nil, err
	}
	g.emit(viewTable, decls, PhaseViewCompute, PhaseViewUpdate)

	s := &Script{
		View:       viewTable,
		ViewPlan:   fixed,
		CachedPlan: cached,
		Steps:      g.steps,
		Caches:     g.caches,
		Base:       base,
		TupleMode:  tupleMode,
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
// view); aggregation nodes use it as their Output keyword target, and the
// plan returned for the root is the one the view is materialized from.
func (g *gen) node(n algebra.Node, out *mat) ([]decl, algebra.Node, error) {
	switch x := n.(type) {
	case *algebra.Scan:
		return g.scanDecls(x), x, nil
	case *algebra.GroupBy:
		return g.groupNode(x, out)
	case *algebra.Select, *algebra.Project, *algebra.UnionAll, *algebra.Join, *algebra.SemiJoin:
	default:
		return nil, nil, fmt.Errorf("ivm: unsupported operator %T", n)
	}
	// The operator's diffs are its children's through its rules, and its
	// plan is itself over its children's plans.
	var ins [][]decl
	var mats []algebra.Node
	var inputs []inputFn
	for _, c := range n.Children() {
		cIns, cMat, err := g.node(c, nil)
		if err != nil {
			return nil, nil, err
		}
		ins, mats, inputs = append(ins, cIns), append(mats, cMat), append(inputs, recomputeInput(cMat))
	}
	outs, err := g.through(n, ins, inputs)
	if err != nil {
		return nil, nil, err
	}
	next := -1
	return outs, algebra.MapChildren(n, func(algebra.Node) algebra.Node { next++; return mats[next] }), nil
}

// through runs each diff of n's children — ins[i] from child i, whose
// subview inputs[i] supplies — through n's propagation rules.
func (g *gen) through(n algebra.Node, ins [][]decl, inputs []inputFn) ([]decl, error) {
	var outs []decl
	for side, sideIns := range ins {
		for _, in := range sideIns {
			var ds []decl
			var err error
			switch x := n.(type) {
			case *algebra.Select:
				ds, err = g.selectRules(x, in, inputs[0])
			case *algebra.Project:
				ds, err = g.projectRules(x, in, inputs[0])
			case *algebra.UnionAll:
				ds = []decl{g.unionRules(x, in, int64(side))}
			case *algebra.Join:
				ds, err = g.joinRules(x, in, side == 0, inputs[0], inputs[1])
			case *algebra.SemiJoin:
				ds, err = g.semiRules(x, in, side == 0, inputs[0], inputs[1])
			}
			if err != nil {
				return nil, err
			}
			outs = append(outs, ds...)
		}
	}
	return outs, nil
}

// groupNode handles aggregation: input cache creation (idIVM mode), rule
// dispatch between the incremental sum/count path and the general
// recompute path, and output materialization (out-cache for interior γs).
func (g *gen) groupNode(x *algebra.GroupBy, out *mat) ([]decl, algebra.Node, error) {
	ins, childMat, err := g.node(x.Child, nil)
	if err != nil {
		return nil, nil, err
	}

	// Input materialization: idIVM materializes the aggregate's input, narrowed
	// to what the γ reads, as an intermediate cache unless the input is a base
	// table (Example 4.6).
	var input inputFn
	if g.tupleMode || g.opts.NoCache {
		input = recomputeInput(childMat)
	} else if _, isScan := childMat.(*algebra.Scan); isScan {
		input = recomputeInput(childMat)
	} else if _, isRef := childMat.(*algebra.RelRef); isRef {
		// Child is already materialized (an out-cache of a deeper γ).
		input = recomputeInput(childMat)
	} else {
		if childMat, ins, err = g.narrowInput(x, childMat, ins); err != nil {
			return nil, nil, err
		}
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
	}
	return outs, selfPlan, nil
}

// narrowInput narrows the input of a γ that groupNode caches to what the γ
// reads — the child's IDs, the grouping attributes and the aggregate
// arguments —, as F-IVM's view trees keep at each node only the variables
// its parent needs. The cache becomes π[kept](child) and the π rules (Table
// 8) derive its diffs from the child's: an update whose post columns are all
// projected away yields none, every other diff carries only kept columns.
// The γ rules read nothing of x.Child beyond its key, which the π keeps. A
// child that is already narrow is returned as is.
func (g *gen) narrowInput(x *algebra.GroupBy, child algebra.Node, ins []decl) (algebra.Node, []decl, error) {
	sch := child.Schema()
	read := rel.Union(sch.Key, x.Keys)
	for _, a := range x.Aggs {
		if a.Arg != nil {
			read = rel.Union(read, a.Arg.Cols())
		}
	}
	keep := rel.Intersect(sch.Attrs, read)
	if len(keep) == len(sch.Attrs) {
		return child, ins, nil
	}
	p := algebra.Keep(child, keep...)
	outs, err := g.through(p, [][]decl{ins}, []inputFn{recomputeInput(child)})
	return p, outs, err
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
