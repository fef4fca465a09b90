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
// APPLY statements read it as columns. Some operators may hand over a
// sequence of batches instead (partsNode, runParts): the n-ary ∪all (cUnion)
// its branches, and σ, ⋉/▷ and π the parts of their input, each filtered or
// computed where it lies. γ and both sides of a semijoin read such a
// sequence one batch after another; only a consumer that needs one batch —
// a step's root, a join's side — concatenates it, once (concat). The
// kernels those bodies are built from live in batch.go.
//
// Compile compiles the plan it is given, one operator per plan node: it
// rewrites nothing, so the plan a Δ-script prints is the plan that runs
// (its rewrites are pass 4's, ivm.Minimize). A π literal or a tagged
// union's branch column is a constant column (rel.Constant), which no run
// allocates.
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

// Run evaluates the plan into tuples of the caller's own. A π of plain
// columns over a σ-chain on a stored leaf — a keyed SQL read — builds them
// straight from the stored rows the σ keeps, never as columns.
func (p *ExecPlan) Run(env Env) (*rel.Relation, error) {
	if pr, ok := p.root.(*cProject); ok && pr.plain() {
		if sel, ok := pr.child.(*cStoredSelect); ok {
			return sel.project(env, p.sch, pr.colIdx)
		}
	}
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

// partsNode is an operator that can hand its rows over as a sequence of
// non-empty batches (runParts): the n-ary ∪all its branches, and σ, ⋉/▷ and
// π the parts of their input, each filtered or computed where it lies. Its
// run makes one batch of them (runWhole), except π's, which computes over
// its input's one batch.
type partsNode interface {
	cNode
	parts(env Env, dst []*rel.Batch) ([]*rel.Batch, error)
}

// compileNode compiles n; the expressions in it read their parameters from
// ps.
func compileNode(n Node, ps *expr.Params) (cNode, error) {
	// A stored leaf is a σ-chain over it of length zero.
	if sh, ok := shapeOf(n); ok {
		return compileStoredSelect(sh, ps)
	}
	switch x := n.(type) {
	case *Empty:
		return &cEmpty{empty: rel.NewBatch(x.Sch)}, nil
	case *RelRef:
		return &cBinding{name: x.Name, empty: rel.NewBatch(x.Sch)}, nil
	case *Select:
		child, err := compileNode(x.Child, ps)
		if err != nil {
			return nil, err
		}
		c := &cSelect{child: child, empty: rel.NewBatch(x.Child.Schema())}
		if !expr.IsTrueLit(x.Pred) {
			refs, pred, err := compileRefs(ps, x.Child.Schema(), x.Pred)
			if err != nil {
				return nil, err
			}
			c.refs, c.pred = refs, pred[0]
		}
		return c, nil
	case *Project:
		return compileProject(x, ps)
	case *Join:
		return compileJoin(x, ps)
	case *SemiJoin:
		return compileSemi(x, ps)
	case *GroupBy:
		return compileGroupBy(x, ps)
	case *UnionAll:
		return compileUnion(x, ps)
	default:
		return nil, fmt.Errorf("algebra: cannot compile node type %T", n)
	}
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
	return relabel(bd.Batch(), c.empty), nil
}

// relabel returns b under the schema of empty, whose attributes name b's
// leading columns: b itself when its schema already has those attributes and
// that key, else a batch sharing its columns.
func relabel(b, empty *rel.Batch) *rel.Batch {
	sch := empty.Schema
	if slices.Equal(b.Schema.Attrs, sch.Attrs) && slices.Equal(b.Schema.Key, sch.Key) {
		return b
	}
	w := len(sch.Attrs)
	return &rel.Batch{Schema: sch, Cols: b.Cols[:w:w], N: b.N}
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
// batch.go), part by part. The selection, the parts' ends in it and the row
// the predicate reads are scratch, reused by every run.
type cSelect struct {
	child cNode
	pred  *expr.Compiled // nil when TRUE; compiled against refs
	refs  refCols
	sel   []int32
	ends  []int
	row   rel.Tuple
	empty *rel.Batch
	buf   []*rel.Batch // the parts of one run
}

func (c *cSelect) run(env Env) (*rel.Batch, error) { return runWhole(c, env, &c.buf, c.empty) }

func (c *cSelect) parts(env Env, dst []*rel.Batch) ([]*rel.Batch, error) {
	n0 := len(dst)
	dst, err := runParts(c.child, env, dst)
	if err != nil || c.pred == nil {
		return dst, err
	}
	return c.filter(dst[:n0], dst[n0:]), nil
}

// refCols are the columns of an input that compiled expressions read, by
// position: the expressions are compiled against these columns alone
// (compileRefs), and row boxes just their values of one input row.
type refCols []int

// row boxes the refs columns of b's row i into buf, which it returns.
func (refs refCols) row(b *rel.Batch, i int, buf rel.Tuple) rel.Tuple {
	buf = buf[:0]
	for _, j := range refs {
		buf = append(buf, b.Cols[j].Value(i))
	}
	return buf
}

// compileRefs compiles es over the columns of sch they read, returned as
// their positions in sch. An expression naming a column sch lacks fails as
// it fails against sch.
func compileRefs(ps *expr.Params, sch rel.Schema, es ...expr.Expr) (refCols, []*expr.Compiled, error) {
	if len(es) == 0 {
		return nil, nil, nil
	}
	var refs refCols
	var attrs []string
	for _, e := range es {
		for _, a := range e.Cols() {
			j := sch.Index(a)
			if j < 0 {
				_, err := ps.Compile(e, sch) // the error naming a
				return nil, nil, err
			}
			if !slices.Contains(refs, j) {
				refs, attrs = append(refs, j), append(attrs, a)
			}
		}
	}
	read := rel.NewSchema(attrs, nil)
	out := make([]*expr.Compiled, len(es))
	for i, e := range es {
		var err error
		if out[i], err = ps.Compile(e, read); err != nil {
			return nil, nil, err
		}
	}
	return refs, out, nil
}

// cStoredSelect runs a σ-chain over a stored leaf — a bare leaf is a chain
// of length zero, one scan: the probe on the chain's literal equalities
// when useIndex takes it, else a scan filtered by the whole predicate.
// Either way the rows are filtered as tuples and only the kept ones become
// columns.
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
	rows, err := c.rows(env)
	if err != nil {
		return nil, err
	}
	b := batchOf(c.empty, rows) // copies the values out of the scratch rows
	clear(c.kept)               // hold no stored rows between runs
	return b, nil
}

// rows returns the stored rows the σ-chain keeps, in the probe's row buffer
// or the scan's kept rows: scratch, valid until the next run.
func (c *cStoredSelect) rows(env Env) ([]rel.Tuple, error) {
	t, err := c.probe.resolve(env)
	if err != nil {
		return nil, err
	}
	index, err := useIndex(t, &c.probe.plan, c.probe.valsBuf)
	if err != nil {
		return nil, err
	}
	if index {
		return c.probe.lookup(t)
	}
	rows := t.Scan(c.probe.plan.st)
	if c.full != nil {
		c.kept = keepRows(c.full, rows, c.kept[:0])
		rows = c.kept
	}
	return rows, nil
}

// project is Run of a π of plain columns (cols, positions in the σ-chain's
// schema) over the σ-chain: the kept rows' values copied into new tuples,
// which share one backing array and cannot grow into each other.
func (c *cStoredSelect) project(env Env, sch rel.Schema, cols []int) (*rel.Relation, error) {
	rows, err := c.rows(env)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(sch)
	if len(rows) > 0 {
		w := len(cols)
		vals := make([]rel.Value, len(rows)*w)
		out.Tuples = make([]rel.Tuple, len(rows))
		for i, r := range rows {
			t := vals[i*w : (i+1)*w : (i+1)*w]
			for j, x := range cols {
				t[j] = r[x]
			}
			out.Tuples[i] = t
		}
	}
	clear(c.kept)
	return out, nil
}

// cProject applies precompiled projection expressions. A plain column
// reference aliases the child's vector — payload and indirection shared,
// zero copies, zero evaluations; a literal is a constant column, built at
// compile time; only the computed items are evaluated, on a row of the
// columns they read. That row and the computed columns' builders are
// scratch, reused by every run.
type cProject struct {
	colIdx   []int          // child column position of a plain Col item, -1 otherwise
	lit      []int          // the literal items
	lits     []rel.Constant // their columns
	gen      []int          // the computed items (colIdx -1)
	evals    []*expr.Compiled
	refs     refCols // the child columns the computed items read
	row      rel.Tuple
	builders []rel.ColBuilder
	prefix   bool // item i is the child's column i: the output shares its column slice
	child    cNode
	empty    *rel.Batch
}

func compileProject(p *Project, ps *expr.Params) (cNode, error) {
	child, err := compileNode(p.Child, ps)
	if err != nil {
		return nil, err
	}
	cs := p.Child.Schema()
	c := &cProject{colIdx: make([]int, len(p.Items)), child: child, empty: rel.NewBatch(p.Schema())}
	var computed []expr.Expr
	for i, it := range p.Items {
		c.colIdx[i] = -1
		switch x := it.E.(type) {
		case expr.Col:
			if c.colIdx[i] = cs.Index(x.Name); c.colIdx[i] >= 0 {
				continue
			}
		case expr.Lit:
			c.lit, c.lits = append(c.lit, i), append(c.lits, rel.NewConstant(x.Val))
			continue
		}
		c.gen, computed = append(c.gen, i), append(computed, it.E)
	}
	if c.refs, c.evals, err = compileRefs(ps, cs, computed...); err != nil {
		return nil, err
	}
	c.prefix = isPrefix(p.Items, cs)
	return c, nil
}

// plain reports whether every item is a plain column.
func (c *cProject) plain() bool {
	return !slices.ContainsFunc(c.colIdx, func(j int) bool { return j < 0 })
}

// isPrefix reports whether item i is the plain column i of sch, for every
// item: the π keeps (and may rename) a prefix of its child's columns.
func isPrefix(items []ProjItem, sch rel.Schema) bool {
	for i, it := range items {
		if col, ok := it.E.(expr.Col); !ok || sch.Index(col.Name) != i {
			return false
		}
	}
	return true
}

func (c *cProject) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	if child.N == 0 {
		return c.empty, nil
	}
	return c.project(child), nil
}

// parts projects each part of the child where it lies.
func (c *cProject) parts(env Env, dst []*rel.Batch) ([]*rel.Batch, error) {
	n0 := len(dst)
	dst, err := runParts(c.child, env, dst)
	if err != nil {
		return dst, err
	}
	for i, b := range dst[n0:] {
		dst[n0+i] = c.project(b)
	}
	return dst, nil
}

// project computes the items over a non-empty batch.
func (c *cProject) project(b *rel.Batch) *rel.Batch {
	if c.prefix { // a rename or a π dropping trailing columns
		return relabel(b, c.empty)
	}
	n := b.N
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, len(c.colIdx)), N: n}
	for i, j := range c.colIdx {
		if j >= 0 {
			out.Cols[i] = b.Cols[j]
		}
	}
	for k, i := range c.lit {
		out.Cols[i] = c.lits[k].Col(n)
	}
	if len(c.gen) == 0 {
		return out
	}
	if c.builders == nil {
		c.builders = make([]rel.ColBuilder, len(c.gen))
	}
	for k := range c.builders {
		c.builders[k].Grow(n)
	}
	for r := 0; r < n; r++ {
		c.row = c.refs.row(b, r, c.row)
		for k, ev := range c.evals {
			c.builders[k].Append(ev.Eval(c.row))
		}
	}
	for k, i := range c.gen {
		out.Cols[i] = c.builders[k].Vec()
	}
	clear(c.builders) // hold no column between runs
	return out
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
// semiPlan. Both sides arrive as sequences of batches (runParts): the
// kernels read the key (right) side's one after another, and filter each
// part of the left where it lies.
type cSemi struct {
	semiPlan
	keep     bool
	left     cNode // nil when the left side is the probe target
	right    cNode // nil when the right side is the probe target
	pr       *cProbe
	match    *expr.CompiledPair // the plan's residual; nil when TRUE
	empty    *rel.Batch
	keyParts []*rel.Batch // the key side's parts of one run
	buf      []*rel.Batch // the parts of one run
}

func compileSemi(s *SemiJoin, ps *expr.Params) (cNode, error) {
	pl, err := planSemi(s)
	if err != nil {
		return nil, err
	}
	l, r := s.Left, s.Right
	c := &cSemi{semiPlan: pl, keep: !s.Anti, empty: rel.NewBatch(l.Schema())}
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

// keys runs the key side into c.keyParts.
func (c *cSemi) keys(env Env) ([]*rel.Batch, error) {
	right, err := runParts(c.right, env, c.keyParts[:0])
	c.keyParts = right[:0]
	return right, err
}

func (c *cSemi) run(env Env) (*rel.Batch, error) { return runWhole(c, env, &c.buf, c.empty) }

// parts appends the kept rows of each part of the left side to dst, a part
// kept whole as it is (keepParts). Its stored accesses are a part-by-part
// run's over one batch of the parts: the same lookups in the same order.
func (c *cSemi) parts(env Env, dst []*rel.Batch) ([]*rel.Batch, error) {
	defer func() { clear(c.keyParts[:cap(c.keyParts)]) }() // hold no batch between runs
	var right []*rel.Batch
	var err error
	if c.keysetFirst {
		if right, err = c.keys(env); err != nil || len(right) == 0 {
			return dst, err
		}
	}
	if c.strategy == semiProbeLeft {
		t, err := c.pr.resolve(env)
		if err != nil {
			return dst, err
		}
		b, err := c.probeLeft(t, right)
		if err != nil || b.N == 0 {
			return dst, err
		}
		return append(dst, b), nil
	}

	n0 := len(dst)
	if dst, err = runParts(c.left, env, dst); err != nil || len(dst) == n0 {
		return dst, err
	}
	left := dst[n0:]
	var t *storage.Handle
	if c.strategy == semiProbeRight {
		if t, err = c.pr.resolve(env); err != nil {
			return dst, err
		}
	} else if !c.keysetFirst {
		if right, err = c.keys(env); err != nil {
			return dst, err
		}
		if len(right) == 0 && !c.keep { // nothing to exclude (a semijoin's empty key set returned above)
			return dst, nil
		}
	}
	s := getScratch()
	defer s.release()
	switch c.strategy {
	case semiProbeRight:
		err = c.probeRightSel(s, t, left)
	case semiHash:
		c.hashSel(s, left, right)
	default:
		c.nestedSel(s, left, right)
	}
	if err != nil {
		return dst, err
	}
	return keepParts(dst[:n0], left, s.sel, s.ends), nil
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
	parts  []*rel.Batch // the child's batches of one run (runParts)
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
	parts, err := runParts(c.child, env, c.parts[:0])
	c.parts = parts[:0]
	defer clear(parts[:cap(parts)]) // hold no batch between runs
	switch {
	case err != nil:
		return nil, err
	case len(parts) == 0:
		return c.empty, nil
	}
	return c.fold(parts), nil
}

// cUnion is the n-ary ∪all. Its parts are its branches' parts, one after
// another (a branch that is a partsNode contributes its own), and its run
// concatenates them (runWhole). A tagged union's tags[i] is the constant
// branch column of branch i's rows.
type cUnion struct {
	branches []cNode
	tags     []rel.Constant // nil when untagged
	empty    *rel.Batch
	buf      []*rel.Batch // the non-empty branches of one run
}

func compileUnion(u *UnionAll, ps *expr.Params) (*cUnion, error) {
	c := &cUnion{branches: make([]cNode, len(u.Branches)), empty: rel.NewBatch(u.Schema())}
	for i, b := range u.Branches {
		var err error
		if c.branches[i], err = compileNode(b, ps); err != nil {
			return nil, err
		}
		if u.BranchAttr != "" {
			c.tags = append(c.tags, rel.NewConstant(rel.Int(int64(i))))
		}
	}
	return c, nil
}

func (c *cUnion) run(env Env) (*rel.Batch, error) { return runWhole(c, env, &c.buf, c.empty) }

// parts appends the union's branches' parts to dst, in order: each as its
// branch returned it, or, when the union is tagged, with its branch column.
func (c *cUnion) parts(env Env, dst []*rel.Batch) ([]*rel.Batch, error) {
	w := len(c.empty.Schema.Attrs) - 1
	for i, br := range c.branches {
		n0 := len(dst)
		var err error
		if dst, err = runParts(br, env, dst); err != nil {
			return dst, err
		}
		if c.tags == nil {
			continue
		}
		for j, b := range dst[n0:] {
			cols := append(b.Cols[:w:w], c.tags[i].Col(b.N))
			dst[n0+j] = &rel.Batch{Schema: c.empty.Schema, Cols: cols, N: b.N}
		}
	}
	return dst, nil
}

// runParts runs n and appends its rows to dst as a sequence of non-empty
// batches: a partsNode's parts, any other operator's one batch. A consumer
// that reads rows in order, as γ and a semijoin's either side do, reads
// them without a concatenation. The caller owns dst and clears it to its
// capacity once read: a partsNode may drop parts it appended.
func runParts(n cNode, env Env, dst []*rel.Batch) ([]*rel.Batch, error) {
	if p, ok := n.(partsNode); ok {
		return p.parts(env, dst)
	}
	b, err := n.run(env)
	if err != nil || b.N == 0 {
		return dst, err
	}
	return append(dst, b), nil
}

// runWhole runs n into one batch: its parts, in *buf — which keeps its
// backing array for the next run and holds no batch between runs —
// concatenated under empty's schema.
func runWhole(n partsNode, env Env, buf *[]*rel.Batch, empty *rel.Batch) (*rel.Batch, error) {
	parts, err := n.parts(env, (*buf)[:0])
	*buf = parts[:0]
	defer clear(parts[:cap(parts)])
	if err != nil {
		return nil, err
	}
	return concat(parts, empty), nil
}

// concat is the one batch of a sequence of batches, under empty's schema,
// each contributing its first columns: empty for none, the one relabeled,
// else a payload per column that AppendVec fills batch after batch. It is
// the only place a sequence of batches is copied into one.
func concat(parts []*rel.Batch, empty *rel.Batch) *rel.Batch {
	switch len(parts) {
	case 0:
		return empty
	case 1:
		return relabel(parts[0], empty)
	}
	n := 0
	for _, b := range parts {
		n += b.N
	}
	out := &rel.Batch{Schema: empty.Schema, Cols: make([]rel.ColVec, len(empty.Schema.Attrs)), N: n}
	for j := range out.Cols {
		var cb rel.ColBuilder
		cb.Grow(n)
		for _, b := range parts {
			cb.AppendVec(&b.Cols[j], b.N)
		}
		out.Cols[j] = cb.Vec()
	}
	return out
}

// at locates row r of a sequence of batches: the batch that holds it and
// the row there.
func at(parts []*rel.Batch, r int) (*rel.Batch, int) {
	for _, b := range parts {
		if r < b.N {
			return b, r
		}
		r -= b.N
	}
	panic(fmt.Sprintf("algebra: row %d past the end of a sequence of batches", r))
}
