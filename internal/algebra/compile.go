// Plan compilation: Compile turns a logical plan into an ExecPlan, a
// reusable executable form in which everything the interpreted evaluator
// re-derives on every call is resolved exactly once — column positions,
// predicate bindings, equi-join pairs, and the join/semijoin/probe
// strategy. A Δ-script's steps are compiled at view-registration time and
// the executor runs the compiled form every maintenance round; views
// materialize and SQL reads run compiled plans too, and Eval is the oracle.
//
// Every compiled operator has exactly one body, run, and the only currency
// between operators — and between the steps of a Δ-script — is the
// column-major rel.Batch: rows enter columnar form right after a charged
// Scan/Lookup and a plan hands its root batch out as a rel.Binding
// (ExecPlan.Bind), which a later plan's binding leaf reads as columns and
// which becomes tuples at most once, when somebody asks for them (the Eval
// oracle, ExecPlan.Run's caller, a reader of a view's applied i-diffs); the
// APPLY statements read it as columns. The kernels those bodies are built
// from live in batch.go.
//
// The compiled and interpreted paths make no access-path decision of their
// own: both run the plans of the one physical planner (shape.go: joinPlan,
// semiPlan, probePlan and the useIndex rule), probe stored tables through
// the same cProbe and charge through the same Handle entry points, so for
// every plan they perform identical stored accesses: state, reports and
// access counters match tuple-for-tuple. Compilation only turns a plan into
// kernels; the differential suites assert the parity on randomized plans.
//
// An ExecPlan owns mutable scratch (probe value and result buffers,
// selection vectors, a probe join's last match ratio), so a single ExecPlan
// must not be Run concurrently with itself. The Δ-script executor satisfies
// this (each step runs at most once per round, on one goroutine), and the
// serving plan cache checks a plan out for one read at a time. Everything
// else a kernel works in it borrows for one call from a pool shared by every
// plan (kernelScratch, scratch.go). Batches, by contrast, are immutable once
// built — kernels only ever derive new ones — which is what lets every
// operator hand out one shared zero-row batch (its empty field, which also
// carries the operator's output schema) instead of allocating a fresh one
// whenever a diff turns out empty.
package algebra

import (
	"fmt"
	"slices"

	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ExecPlan is a compiled plan. Run evaluates it against an environment,
// producing the same relation, in the same order, with the same stored
// access charges as Eval on the source plan.
type ExecPlan struct {
	root   cNode
	sch    rel.Schema
	empty  *rel.Binding // what Bind returns for zero rows, shared like the operators' empty batches
	params expr.Params  // the values the plan's parameters (expr.Param) read, set by SetParams
}

// Compile compiles a plan. It fails on the same malformed plans Eval would
// reject (unknown node types, unresolvable predicate columns). A plan may
// hold parameters (expr.Param), which Eval rejects: each run reads the
// values SetParams set last.
func Compile(n Node) (*ExecPlan, error) {
	p := &ExecPlan{sch: n.Schema(), empty: rel.BindBatch(rel.NewBatch(n.Schema()))}
	var err error
	if p.root, err = compileNode(n, &p.params); err != nil {
		return nil, err
	}
	return p, nil
}

// MustCompile is Compile that panics on error, for static plans and tests.
func MustCompile(n Node) *ExecPlan {
	p, err := Compile(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Schema returns the plan's output schema.
func (p *ExecPlan) Schema() rel.Schema { return p.sch }

// SetParams makes vals[i] the value of the plan's parameter i on its next
// runs. vals must hold a value for each of the plan's parameters. Like a
// run, it must not overlap another run of the plan.
func (p *ExecPlan) SetParams(vals []rel.Value) { p.params.Set(vals) }

// Bind executes the compiled plan against an environment and returns its
// root batch as a binding: columns for the plans that read it next, tuples
// only if a reader asks. Stored tables are resolved through env on every
// run, so WithCounter sharding keeps working: the plan pins strategies, not
// table handles or counters. Every empty result is the one binding built at
// Compile, so an empty step costs no allocation.
func (p *ExecPlan) Bind(env Env) (*rel.Binding, error) {
	b, err := p.root.run(env)
	switch {
	case err != nil:
		return nil, err
	case b.N == 0:
		return p.empty, nil
	}
	return rel.BindBatch(b), nil
}

// Run evaluates the plan into tuples of the caller's own.
func (p *ExecPlan) Run(env Env) (*rel.Relation, error) {
	b, err := p.root.run(env)
	if err != nil {
		return nil, err
	}
	return b.Materialize(), nil
}

// cNode is one compiled operator.
type cNode interface {
	run(env Env) (*rel.Batch, error)
}

// compileNode compiles n; the expressions in it read their parameters from
// ps.
func compileNode(n Node, ps *expr.Params) (cNode, error) {
	switch x := n.(type) {
	case *Scan:
		return &cStored{table: x.Table, st: x.St, sch: x.schema}, nil
	case *Empty:
		return &cEmpty{empty: rel.NewBatch(x.Sch)}, nil
	case *RelRef:
		if x.Stored {
			return &cStored{table: x.Name, st: x.St, sch: x.Sch}, nil
		}
		return &cBinding{name: x.Name, empty: rel.NewBatch(x.Sch)}, nil
	case *Select:
		if sh, ok := shapeOf(x); ok {
			return compileStoredSelect(sh, ps)
		}
		child, err := compileNode(x.Child, ps)
		if err != nil {
			return nil, err
		}
		pred, err := compilePred(x.Pred, x.Child.Schema(), ps)
		if err != nil {
			return nil, err
		}
		return &cSelect{child: child, pred: pred, empty: rel.NewBatch(x.Child.Schema())}, nil
	case *Project:
		return compileProject(x, ps)
	case *Join:
		return compileJoin(x, ps)
	case *SemiJoin:
		return compileSemi(x.Left, x.Right, x.Pred, true, ps)
	case *AntiJoin:
		return compileSemi(x.Left, x.Right, x.Pred, false, ps)
	case *GroupBy:
		return compileGroupBy(x, ps)
	case *UnionAll:
		return compileUnion(x, ps)
	default:
		return nil, fmt.Errorf("algebra: cannot compile node type %T", n)
	}
}

// cStored scans a stored table (Scan or stored RelRef leaf).
type cStored struct {
	table string
	st    rel.State
	sch   rel.Schema
}

func (c *cStored) run(env Env) (*rel.Batch, error) {
	t, err := env.Table(c.table)
	if err != nil {
		return nil, err
	}
	return rel.FromTuples(c.sch, t.Scan(c.st)), nil
}

// cBinding reads a named in-memory relation: the binding's columns — built
// once however many leaves, steps or views read it — under this leaf's own
// schema (the producer's names its plan's attributes, and a σ over the leaf
// returns the batch it was handed). Where the schema is the producer's, which
// a run decides once, on the attribute and key names, the producer's batch is
// returned as is; otherwise a batch relabels its columns.
type cBinding struct {
	name  string
	empty *rel.Batch
}

func (c *cBinding) run(env Env) (*rel.Batch, error) {
	bd, err := env.Bound(c.name)
	if err != nil {
		return nil, err
	}
	if bd.Len() == 0 {
		return c.empty, nil
	}
	b := bd.Batch()
	if sch := c.empty.Schema; slices.Equal(b.Schema.Attrs, sch.Attrs) && slices.Equal(b.Schema.Key, sch.Key) {
		return b, nil
	}
	return &rel.Batch{Schema: c.empty.Schema, Cols: b.Cols, N: b.N}, nil
}

// batchOf columnarizes rows an operator just obtained from a charged lookup
// or scan under the schema of its empty batch, which it returns as is when
// there are none.
func batchOf(empty *rel.Batch, rows []rel.Tuple) *rel.Batch {
	if len(rows) == 0 {
		return empty
	}
	return rel.FromTuples(empty.Schema, rows)
}

type cEmpty struct{ empty *rel.Batch }

func (c *cEmpty) run(Env) (*rel.Batch, error) { return c.empty, nil }

// compilePred compiles a predicate over one input; nil stands for TRUE.
func compilePred(e expr.Expr, sch rel.Schema, ps *expr.Params) (*expr.Compiled, error) {
	if expr.IsTrueLit(e) {
		return nil, nil
	}
	return ps.Compile(e, sch)
}

// cSelect filters a derived child with its compiled predicate (filter, in
// batch.go). The selection vector and the row the predicate reads are
// scratch, reused by every run.
type cSelect struct {
	child cNode
	pred  *expr.Compiled // nil when TRUE
	sel   []int32
	row   rel.Tuple
	empty *rel.Batch
}

func (c *cSelect) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	return c.filter(child), nil
}

// cStoredSelect runs a σ-chain over a stored leaf: the probe on the
// chain's literal equalities when useIndex takes it, else a scan filtered by
// the whole predicate. Either way the rows are filtered as tuples and only
// the kept ones become columns.
type cStoredSelect struct {
	probe *cProbe
	full  *expr.Compiled // the whole predicate, for the scan; nil when TRUE
	kept  []rel.Tuple    // the scan's kept rows (scratch)
	empty *rel.Batch
}

func compileStoredSelect(sh *probeShape, ps *expr.Params) (cNode, error) {
	probe, err := compileProbe(planProbe(sh, nil), ps)
	if err != nil {
		return nil, err
	}
	full, err := compilePred(sh.extra, sh.schema, ps)
	if err != nil {
		return nil, err
	}
	return &cStoredSelect{probe: probe, full: full, empty: rel.NewBatch(sh.schema)}, nil
}

func (c *cStoredSelect) run(env Env) (*rel.Batch, error) {
	t, err := c.probe.resolve(env)
	if err != nil {
		return nil, err
	}
	index, err := useIndex(t, &c.probe.plan, c.probe.valsBuf)
	if err != nil {
		return nil, err
	}
	if index {
		// The batch copies the values out, so the probe's row buffer is scratch.
		rows, err := c.probe.lookup(t)
		if err != nil {
			return nil, err
		}
		return batchOf(c.empty, rows), nil
	}
	rows := t.Scan(c.probe.plan.st)
	if c.full != nil {
		c.kept = keepRows(c.full, rows, c.kept[:0])
		rows = c.kept
	}
	b := batchOf(c.empty, rows)
	clear(c.kept) // hold no stored rows between runs
	return b, nil
}

// cProject applies precompiled projection expressions. A plain column
// reference aliases the child's vector — payload and indirection shared,
// zero copies, zero evaluations; only the generic items are evaluated, on a
// scratch row.
type cProject struct {
	items   []*expr.Compiled
	colIdx  []int // child column position for plain Col items, -1 otherwise
	generic []int // the items with colIdx < 0
	prefix  bool  // item i is the child's column i: the output shares its column slice
	child   cNode
	empty   *rel.Batch
}

func compileProject(p *Project, ps *expr.Params) (cNode, error) {
	child, err := compileNode(p.Child, ps)
	if err != nil {
		return nil, err
	}
	cs := p.Child.Schema()
	c := &cProject{items: make([]*expr.Compiled, len(p.Items)), colIdx: make([]int, len(p.Items)),
		child: child, empty: rel.NewBatch(p.Schema())}
	for i, it := range p.Items {
		if c.items[i], err = ps.Compile(it.E, cs); err != nil {
			return nil, err
		}
		c.colIdx[i] = -1
		if col, ok := it.E.(expr.Col); ok {
			c.colIdx[i] = cs.Index(col.Name)
		}
		if c.colIdx[i] < 0 {
			c.generic = append(c.generic, i)
		}
	}
	c.prefix = len(c.generic) == 0
	for i, j := range c.colIdx {
		c.prefix = c.prefix && i == j
	}
	return c, nil
}

func (c *cProject) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	n := child.Len()
	if n == 0 {
		return c.empty, nil
	}
	w := len(c.items)
	if c.prefix { // a rename or a π dropping trailing columns, e.g. a union's branch column
		return &rel.Batch{Schema: c.empty.Schema, Cols: child.Cols[:w:w], N: n}, nil
	}
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, w), N: n}
	for i, j := range c.colIdx {
		if j >= 0 {
			out.Cols[i] = child.Cols[j]
		}
	}
	if len(c.generic) > 0 {
		builders := make([]rel.ColBuilder, len(c.generic))
		for k := range builders {
			builders[k].Grow(n)
		}
		var buf rel.Tuple
		for r := 0; r < n; r++ {
			buf = child.Row(r, buf)
			for k, i := range c.generic {
				builders[k].Append(c.items[i].Eval(buf))
			}
		}
		for k, i := range c.generic {
			out.Cols[i] = builders[k].Vec()
		}
	}
	return out, nil
}

// cProbe runs a probePlan: the residual σ predicate compiled once, and
// reusable value and result buffers for the probe loop. Eval probes through
// it too, so both evaluators issue the same LookupInto calls.
type cProbe struct {
	plan     probePlan
	residual *expr.Compiled // nil when TRUE
	valsBuf  []rel.Value    // join values, then the literal values of this run
	params   []probeParam   // the literal values that are parameters
	rowsBuf  []rel.Tuple
}

// probeParam is a parameter among a probe's literal values: valsBuf[at]
// takes its value at the start of every run.
type probeParam struct {
	at  int
	val *expr.Compiled
}

func compileProbe(pp probePlan, ps *expr.Params) (*cProbe, error) {
	p := &cProbe{plan: pp, valsBuf: make([]rel.Value, pp.nJoin+len(pp.litVals))}
	copy(p.valsBuf[pp.nJoin:], pp.litVals)
	var err error
	for _, x := range pp.params {
		pr := probeParam{at: pp.nJoin + x.At}
		if pr.val, err = ps.Compile(x.Param, rel.Schema{}); err != nil {
			return nil, err
		}
		p.params = append(p.params, pr)
	}
	if p.residual, err = compilePred(pp.residual, pp.schema, ps); err != nil {
		return nil, err
	}
	return p, nil
}

// resolve starts a run of the probe: it writes this run's parameter values
// among the literal values and resolves the probed table.
func (p *cProbe) resolve(env Env) (*storage.Handle, error) {
	for _, x := range p.params {
		p.valsBuf[x.at] = x.val.Eval(nil)
	}
	return env.Table(p.plan.table)
}

// fill writes the idx columns of row i of b into the probe's join values,
// reporting false when one of them is NULL (NULL never joins).
func (p *cProbe) fill(b *rel.Batch, idx []int, i int) bool {
	for k, x := range idx {
		v := b.Cols[x].Value(i)
		if v.IsNull() {
			return false
		}
		p.valsBuf[k] = v
	}
	return true
}

// lookup probes the resolved table with the join values previously written
// into valsBuf[:nJoin]. The returned slice is valid until the next lookup.
func (p *cProbe) lookup(t *storage.Handle) ([]rel.Tuple, error) {
	rows, err := t.LookupInto(p.plan.st, p.plan.prep, p.valsBuf, p.rowsBuf[:0])
	p.rowsBuf = rows[:0]
	if err != nil {
		return nil, err
	}
	if p.residual == nil {
		return rows, nil
	}
	return keepRows(p.residual, rows, rows[:0]), nil // in place: rows is scratch
}

// keepRows appends the rows pred accepts to dst, which may be rows[:0]: the
// loop never writes ahead of where it reads.
func keepRows(pred *expr.Compiled, rows, dst []rel.Tuple) []rel.Tuple {
	for _, r := range rows {
		if pred.EvalBool(r) {
			dst = append(dst, r)
		}
	}
	return dst
}

// compilePair compiles a join or semijoin predicate over its two inputs;
// nil stands for TRUE.
func compilePair(e expr.Expr, ls, rs rel.Schema, ps *expr.Params) (*expr.CompiledPair, error) {
	if expr.IsTrueLit(e) {
		return nil, nil
	}
	return ps.CompilePair(e, ls, rs)
}

// cJoin executes an inner join under its joinPlan. The short-circuit side
// (shortLeft/shortRight) is evaluated first so an empty diff makes the
// whole join free, mirroring Eval.
type cJoin struct {
	joinPlan
	left   cNode // nil when the left side is the probe target
	right  cNode // nil when the right side is the probe target
	pr     *cProbe
	match  *expr.CompiledPair // the plan's residual; nil when TRUE
	empty  *rel.Batch
	lw, rw int // child widths, for output column layout
	fanout int // a probe join's matches per fanoutUnit driving rows in its previous run; -1 before the first
}

// fanoutUnit is the denominator of cJoin.fanout.
const fanoutUnit = 1024

func compileJoin(j *Join, ps *expr.Params) (cNode, error) {
	pl, err := planJoin(j)
	if err != nil {
		return nil, err
	}
	ls, rs := j.Left.Schema(), j.Right.Schema()
	c := &cJoin{joinPlan: pl, empty: rel.NewBatch(j.Schema()), lw: len(ls.Attrs), rw: len(rs.Attrs), fanout: -1}
	if c.match, err = compilePair(pl.residual, ls, rs, ps); err != nil {
		return nil, err
	}
	if pl.probe != nil {
		if c.pr, err = compileProbe(*pl.probe, ps); err != nil {
			return nil, err
		}
	}
	if pl.strategy != joinProbeLeft {
		if c.left, err = compileNode(j.Left, ps); err != nil {
			return nil, err
		}
	}
	if pl.strategy != joinProbeRight {
		if c.right, err = compileNode(j.Right, ps); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *cJoin) run(env Env) (*rel.Batch, error) {
	// Diff-driven short-circuit: evaluate the stored-free side first; an
	// empty diff makes the join free. The result is reused below — that
	// side charges nothing, so charges match the interpreted re-evaluation.
	var left, right *rel.Batch
	var err error
	if c.shortLeft {
		if left, err = c.left.run(env); err != nil {
			return nil, err
		}
		if left.Len() == 0 {
			return c.empty, nil
		}
	} else if c.shortRight {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return c.empty, nil
		}
	}
	if c.left != nil && left == nil {
		if left, err = c.left.run(env); err != nil {
			return nil, err
		}
	}
	if c.right != nil && right == nil {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
	}
	switch c.strategy {
	case joinProbeRight, joinProbeLeft:
		driving := left
		if !c.drivingLeft() {
			driving = right
		}
		t, err := c.pr.resolve(env)
		if err != nil {
			return nil, err
		}
		return c.probeJoin(t, driving)
	case joinHash:
		return c.hashJoin(left, right), nil
	default:
		return c.nestedJoin(left, right), nil
	}
}

// cSemi executes a semijoin (keep=true) or antijoin (keep=false) under its
// semiPlan.
type cSemi struct {
	semiPlan
	keep  bool
	left  cNode // nil when the left side is the probe target
	right cNode // nil when the right side is the probe target
	pr    *cProbe
	match *expr.CompiledPair // the plan's residual; nil when TRUE
	empty *rel.Batch
}

func compileSemi(l, r Node, p expr.Expr, keep bool, ps *expr.Params) (cNode, error) {
	pl, err := planSemi(l, r, p, keep)
	if err != nil {
		return nil, err
	}
	c := &cSemi{semiPlan: pl, keep: keep, empty: rel.NewBatch(l.Schema())}
	if c.match, err = compilePair(pl.residual, l.Schema(), r.Schema(), ps); err != nil {
		return nil, err
	}
	if pl.probe != nil {
		if c.pr, err = compileProbe(*pl.probe, ps); err != nil {
			return nil, err
		}
	}
	if pl.strategy != semiProbeLeft {
		if c.left, err = compileNode(l, ps); err != nil {
			return nil, err
		}
	}
	if pl.strategy != semiProbeRight {
		if c.right, err = compileNode(r, ps); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *cSemi) run(env Env) (*rel.Batch, error) {
	var right *rel.Batch
	var err error
	if c.keysetFirst {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return c.empty, nil
		}
	}
	if c.strategy == semiProbeLeft {
		t, err := c.pr.resolve(env)
		if err != nil {
			return nil, err
		}
		return c.probeLeft(t, right)
	}

	left, err := c.left.run(env)
	if err != nil {
		return nil, err
	}
	if left.Len() == 0 {
		return c.empty, nil
	}
	var sel []int32
	if c.strategy == semiProbeRight {
		t, err := c.pr.resolve(env)
		if err != nil {
			return nil, err
		}
		if sel, err = c.probeRightSel(t, left); err != nil {
			return nil, err
		}
	} else {
		if right == nil {
			if right, err = c.right.run(env); err != nil {
				return nil, err
			}
		}
		switch {
		case right.Len() == 0 && !c.keep: // nothing to exclude (a semijoin's empty key set returned above)
			return left, nil
		case c.strategy == semiHash:
			sel = c.hashSel(left, right)
		default:
			sel = c.nestedSel(left, right)
		}
	}
	if len(sel) == 0 {
		return c.empty, nil
	}
	return left.Gather(sel), nil
}

func (c *cSemi) anyMatch(lt rel.Tuple, rows []rel.Tuple) bool {
	for _, rt := range rows {
		if c.match == nil || c.match.EvalBool(lt, rt) {
			return true
		}
	}
	return false
}

// Aggregate-argument shapes resolved at compile time (cGroupBy.argIdx):
// a non-negative entry is a plain column position.
const (
	argComplex = -1 // general expression; evaluated on a scratch row
	argStar    = -2 // COUNT(*)
)

// cGroupBy hash-aggregates with precompiled aggregate arguments and
// resolved key positions; group order follows first appearance, exactly
// like evalGroupBy.
type cGroupBy struct {
	child  cNode
	keyIdx []int
	fns    []AggFn
	args   []*expr.Compiled // nil entry means COUNT(*)
	argIdx []int            // argStar, argComplex, or a plain column position
	empty  *rel.Batch
}

func compileGroupBy(g *GroupBy, ps *expr.Params) (cNode, error) {
	child, err := compileNode(g.Child, ps)
	if err != nil {
		return nil, err
	}
	cs := g.Child.Schema()
	keyIdx, err := cs.Indices(g.Keys)
	if err != nil {
		return nil, err
	}
	fns := make([]AggFn, len(g.Aggs))
	args := make([]*expr.Compiled, len(g.Aggs))
	argIdx := make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		fns[i] = a.Fn
		if a.Arg == nil {
			argIdx[i] = argStar
			continue
		}
		if args[i], err = ps.Compile(a.Arg, cs); err != nil {
			return nil, err
		}
		argIdx[i] = argComplex
		if col, ok := a.Arg.(expr.Col); ok {
			if j := cs.Index(col.Name); j >= 0 {
				argIdx[i] = j
			}
		}
	}
	return &cGroupBy{child: child, keyIdx: keyIdx, fns: fns, args: args, argIdx: argIdx,
		empty: rel.NewBatch(g.Schema())}, nil
}

func (c *cGroupBy) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	if child.Len() == 0 {
		return c.empty, nil
	}
	return c.fold(child), nil
}

// cUnion concatenates its children column by column and appends the
// branch attribute, like evalUnion; beside an empty child it shares the other
// child's vectors and, up to len(branchWords) rows, a branch column too.
type cUnion struct {
	left, right cNode
	empty       *rel.Batch
	w           int // child width (without the branch attribute)
}

func compileUnion(u *UnionAll, ps *expr.Params) (cNode, error) {
	left, err := compileNode(u.Left, ps)
	if err != nil {
		return nil, err
	}
	right, err := compileNode(u.Right, ps)
	if err != nil {
		return nil, err
	}
	return &cUnion{left: left, right: right, empty: rel.NewBatch(u.Schema()), w: len(u.Left.Schema().Attrs)}, nil
}

func (c *cUnion) run(env Env) (*rel.Batch, error) {
	left, err := c.left.run(env)
	if err != nil {
		return nil, err
	}
	right, err := c.right.run(env)
	if err != nil {
		return nil, err
	}
	n := left.Len() + right.Len()
	if n == 0 {
		return c.empty, nil
	}
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, c.w+1), N: n}
	switch {
	case right.Len() == 0: // the usual case under a γ rule: most diffs of a round are empty
		copy(out.Cols, left.Cols[:c.w])
	case left.Len() == 0:
		copy(out.Cols, right.Cols[:c.w])
	default:
		for j := 0; j < c.w; j++ {
			var cb rel.ColBuilder
			cb.Grow(out.N)
			cb.AppendVec(&left.Cols[j], left.Len())
			cb.AppendVec(&right.Cols[j], right.Len())
			out.Cols[j] = cb.Vec()
		}
	}
	out.Cols[c.w] = rel.ColVec{Kind: rel.VecInt, Nums: branchCol(left.Len(), out.N)}
	return out, nil
}

// branchWords backs the branch column of a one-sided union: a column of n ≤
// len(branchWords) rows that all come from one side is sliced from it instead
// of allocated. Read-only: no kernel writes a ColVec's Nums in place.
var branchWords = func() (w [2][4096]uint64) {
	for i := range w[1] {
		w[1][i] = 1
	}
	return w
}()

// branchCol returns the branch column of a union whose first l of n rows come
// from its left side (0) and the rest from its right (1). The shared slices
// are capacity-limited, so an append copies them.
func branchCol(l, n int) []uint64 {
	switch {
	case n <= len(branchWords[0]) && l == n:
		return branchWords[0][:n:n]
	case n <= len(branchWords[1]) && l == 0:
		return branchWords[1][:n:n]
	}
	branch := make([]uint64, n)
	for i := l; i < n; i++ {
		branch[i] = 1
	}
	return branch
}
