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
// which becomes tuples at most once, when somebody asks for them (an APPLY,
// the Eval oracle, ExecPlan.Run's caller). The kernels those bodies are built
// from live in batch.go.
//
// The compiled and interpreted paths are built from the same shape
// analysis (shapeOf) and the same selection split (expr.EqLiterals), and
// charge stored accesses through the same Handle entry points, so for every
// plan they perform identical stored accesses: state, reports and access
// counters match tuple-for-tuple. The differential suite in internal/ivm
// asserts this on randomized plans.
//
// An ExecPlan owns mutable scratch (probe value and result buffers,
// selection vectors), so a single ExecPlan must not be Run concurrently
// with itself. The Δ-script executor satisfies this (each step runs at most
// once per round, on one goroutine), and the serving plan cache checks a
// plan out for one read at a time. Batches, by contrast, are immutable once
// built — kernels only ever derive new ones — which is what lets every
// operator hand out one shared zero-row batch (its empty field, which also
// carries the operator's output schema) instead of allocating a fresh one
// whenever a diff turns out empty.
package algebra

import (
	"fmt"

	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ExecPlan is a compiled plan. Run evaluates it against an environment,
// producing the same relation, in the same order, with the same stored
// access charges as Eval on the source plan.
type ExecPlan struct {
	root cNode
	sch  rel.Schema
}

// Compile compiles a plan. It fails on the same malformed plans Eval would
// reject (unknown node types, unresolvable predicate columns).
func Compile(n Node) (*ExecPlan, error) {
	root, err := compileNode(n)
	if err != nil {
		return nil, err
	}
	return &ExecPlan{root: root, sch: n.Schema()}, nil
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

// Bind executes the compiled plan against an environment and returns its
// root batch as a binding: columns for the plans that read it next, tuples
// only if a reader asks. Stored tables are resolved through env on every
// run, so WithCounter sharding keeps working: the plan pins strategies, not
// table handles or counters.
func (p *ExecPlan) Bind(env Env) (*rel.Binding, error) {
	b, err := p.root.run(env)
	if err != nil {
		return nil, err
	}
	return rel.BindBatch(b), nil
}

// Run is Bind for a caller that wants the tuples.
func (p *ExecPlan) Run(env Env) (*rel.Relation, error) {
	bd, err := p.Bind(env)
	if err != nil {
		return nil, err
	}
	return bd.Relation(), nil
}

// cNode is one compiled operator.
type cNode interface {
	run(env Env) (*rel.Batch, error)
}

func compileNode(n Node) (cNode, error) {
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
			return compileStoredSelect(sh)
		}
		child, err := compileNode(x.Child)
		if err != nil {
			return nil, err
		}
		pred, err := compileBatchPred(x.Pred, x.Child.Schema())
		if err != nil {
			return nil, err
		}
		return &cSelect{child: child, pred: pred, empty: rel.NewBatch(x.Child.Schema())}, nil
	case *Project:
		return compileProject(x)
	case *Join:
		return compileJoin(x)
	case *SemiJoin:
		return compileSemi(x.Left, x.Right, x.Pred, true)
	case *AntiJoin:
		return compileSemi(x.Left, x.Right, x.Pred, false)
	case *GroupBy:
		return compileGroupBy(x)
	case *UnionAll:
		return compileUnion(x)
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
// returns the batch it was handed).
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

// cSelect filters a derived child with a type-specialized predicate.
type cSelect struct {
	child cNode
	pred  *bPred
	empty *rel.Batch
}

func (c *cSelect) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	return c.pred.filter(child, c.empty), nil
}

// cStoredSelect runs a σ-chain over a stored leaf with the same
// index-vs-scan planning as evalStoredSelect: the column = literal
// equalities of the predicate become an index probe whenever the index
// cardinality makes the probe (1 lookup + p reads) strictly cheaper than
// the full scan (n reads). The decision inputs (p, n) are deterministic
// state, so both executors always pick the same access path.
type cStoredSelect struct {
	table    string
	st       rel.State
	empty    *rel.Batch
	eqBare   []string
	eqVals   []rel.Value
	prep     rel.PrepLookup
	residual *expr.Compiled // after removing the eq literals; nil when TRUE
	full     *bPred         // the whole predicate, for the scan path
	rowsBuf  []rel.Tuple
}

func compileStoredSelect(sh *probeShape) (cNode, error) {
	cols, vals, residual := expr.EqLiterals(sh.extra, sh.schema)
	full, err := compileBatchPred(sh.extra, sh.schema)
	if err != nil {
		return nil, err
	}
	c := &cStoredSelect{table: sh.table, st: sh.st, empty: rel.NewBatch(sh.schema), eqVals: vals, full: full}
	if len(cols) > 0 {
		c.eqBare = make([]string, len(cols))
		for i, col := range cols {
			c.eqBare[i] = sh.toBare(col)
		}
		c.prep = rel.PrepareLookup(c.eqBare)
		if !expr.IsTrueLit(residual) {
			if c.residual, err = expr.Compile(residual, sh.schema); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *cStoredSelect) run(env Env) (*rel.Batch, error) {
	t, err := env.Table(c.table)
	if err != nil {
		return nil, err
	}
	if len(c.eqBare) > 0 {
		p, n, err := t.IndexCard(c.st, c.eqBare, c.eqVals)
		if err != nil {
			return nil, err
		}
		if p+1 < n {
			// The batch copies the values out, so the row buffer is scratch.
			rows, err := t.LookupInto(c.st, c.prep, c.eqVals, c.rowsBuf[:0])
			c.rowsBuf = rows[:0]
			if err != nil {
				return nil, err
			}
			if c.residual != nil {
				kept := rows[:0]
				for _, r := range rows {
					if c.residual.EvalBool(r) {
						kept = append(kept, r)
					}
				}
				rows = kept
			}
			return batchOf(c.empty, rows), nil
		}
	}
	return c.full.filter(batchOf(c.empty, t.Scan(c.st)), c.empty), nil
}

// cProject applies precompiled projection expressions. A plain column
// reference aliases the child's vector — payload and indirection shared,
// zero copies, zero evaluations; only the generic items are evaluated, on a
// scratch row.
type cProject struct {
	items   []*expr.Compiled
	colIdx  []int // child column position for plain Col items, -1 otherwise
	generic []int // the items with colIdx < 0
	child   cNode
	empty   *rel.Batch
}

func compileProject(p *Project) (cNode, error) {
	child, err := compileNode(p.Child)
	if err != nil {
		return nil, err
	}
	cs := p.Child.Schema()
	c := &cProject{items: make([]*expr.Compiled, len(p.Items)), colIdx: make([]int, len(p.Items)),
		child: child, empty: rel.NewBatch(p.Schema())}
	for i, it := range p.Items {
		if c.items[i], err = expr.Compile(it.E, cs); err != nil {
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
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, len(c.items)), N: n}
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

// cProbe is a compiled probeTarget: the full probe attribute list (join
// columns plus folded literal-equality columns) mapped to bare names and
// prepared once, the residual σ predicate compiled once, and reusable
// value/key/result buffers for the probe loop.
type cProbe struct {
	table    string
	st       rel.State
	prep     rel.PrepLookup
	nJoin    int // leading entries of valsBuf filled per probe
	litVals  []rel.Value
	residual *expr.Compiled // probe target's σ residual; nil when TRUE

	valsBuf []rel.Value
	rowsBuf []rel.Tuple
}

// compileProbe prepares a probe of sh on joinCols (qualified names over
// sh.schema).
func compileProbe(sh *probeShape, joinCols []string) (*cProbe, error) {
	litCols, litVals, residual := expr.EqLiterals(sh.extra, sh.schema)
	attrs := make([]string, 0, len(joinCols)+len(litCols))
	for _, a := range joinCols {
		attrs = append(attrs, sh.toBare(a))
	}
	for _, a := range litCols {
		attrs = append(attrs, sh.toBare(a))
	}
	p := &cProbe{
		table:   sh.table,
		st:      sh.st,
		prep:    rel.PrepareLookup(attrs),
		nJoin:   len(joinCols),
		litVals: litVals,
		valsBuf: make([]rel.Value, len(joinCols)+len(litVals)),
	}
	copy(p.valsBuf[len(joinCols):], litVals)
	if !expr.IsTrueLit(residual) {
		var err error
		if p.residual, err = expr.Compile(residual, sh.schema); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *cProbe) resolve(env Env) (*storage.Handle, error) { return env.Table(p.table) }

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
	rows, err := t.LookupInto(p.st, p.prep, p.valsBuf, p.rowsBuf[:0])
	p.rowsBuf = rows[:0]
	if err != nil {
		return nil, err
	}
	if p.residual == nil {
		return rows, nil
	}
	// Compact in place: rows is scratch.
	kept := rows[:0]
	for _, r := range rows {
		if p.residual.EvalBool(r) {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// join strategies, pinned at compile time.
type joinStrategy uint8

const (
	joinProbeRight joinStrategy = iota // derived left probes stored right
	joinProbeLeft                      // derived right probes stored left
	joinHash                           // hash join over two derived inputs
	joinNested                         // nested-loop theta join
)

// cJoin executes an inner join with a pinned strategy. shortLeft/shortRight
// mark a stored-free (pure diff) side that is evaluated first so an empty
// diff makes the whole join free, mirroring the interpreted short-circuit.
type cJoin struct {
	strategy   joinStrategy
	left       cNode // nil when the left side is the probe target
	right      cNode // nil when the right side is the probe target
	probe      *cProbe
	lidx, ridx []int // driving-side positions of the equi columns
	residual   *expr.CompiledPair
	pred       *expr.CompiledPair // nested-loop predicate
	shortLeft  bool
	shortRight bool
	empty      *rel.Batch
	lw, rw     int // child widths, for output column layout
}

func compileJoin(j *Join) (cNode, error) {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	lcols, rcols, residual := expr.EquiPairs(j.Pred, ls, rs)
	c := &cJoin{
		empty: rel.NewBatch(j.Schema()),
		lw:    len(ls.Attrs),
		rw:    len(rs.Attrs),
	}
	c.shortLeft = !TouchesStored(j.Left)
	c.shortRight = !c.shortLeft && !TouchesStored(j.Right)

	var err error
	if !expr.IsTrueLit(residual) {
		if c.residual, err = expr.CompilePair(residual, ls, rs); err != nil {
			return nil, err
		}
	}
	if len(lcols) > 0 {
		if sh, ok := shapeOf(j.Right); ok {
			c.strategy = joinProbeRight
			if c.probe, err = compileProbe(sh, rcols); err != nil {
				return nil, err
			}
			if c.left, err = compileNode(j.Left); err != nil {
				return nil, err
			}
			if c.lidx, err = ls.Indices(lcols); err != nil {
				return nil, err
			}
			return c, nil
		}
		if sh, ok := shapeOf(j.Left); ok {
			c.strategy = joinProbeLeft
			if c.probe, err = compileProbe(sh, lcols); err != nil {
				return nil, err
			}
			if c.right, err = compileNode(j.Right); err != nil {
				return nil, err
			}
			if c.ridx, err = rs.Indices(rcols); err != nil {
				return nil, err
			}
			return c, nil
		}
		c.strategy = joinHash
		if c.left, err = compileNode(j.Left); err != nil {
			return nil, err
		}
		if c.right, err = compileNode(j.Right); err != nil {
			return nil, err
		}
		if c.lidx, err = ls.Indices(lcols); err != nil {
			return nil, err
		}
		if c.ridx, err = rs.Indices(rcols); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.strategy = joinNested
	if c.left, err = compileNode(j.Left); err != nil {
		return nil, err
	}
	if c.right, err = compileNode(j.Right); err != nil {
		return nil, err
	}
	if c.pred, err = expr.CompilePair(j.Pred, ls, rs); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *cJoin) run(env Env) (*rel.Batch, error) {
	// Diff-driven short-circuit: evaluate the stored-free side first; an
	// empty diff makes the join free. The result is reused below — that
	// side charges nothing, so charges match the interpreted re-evaluation.
	var left, right *rel.Batch
	var err error
	if c.shortLeft && c.left != nil {
		if left, err = c.left.run(env); err != nil {
			return nil, err
		}
		if left.Len() == 0 {
			return c.empty, nil
		}
	} else if c.shortRight && c.right != nil {
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
		t, err := c.probe.resolve(env)
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

// semijoin strategies, pinned at compile time (they mirror evalSemi's
// preference order exactly).
type semiStrategy uint8

const (
	semiProbeLeft  semiStrategy = iota // distinct right keys probe the stored left
	semiProbeRight                     // each left tuple probes the stored right
	semiHash                           // hash the right, test each left tuple
	semiNested                         // nested loop
)

// cSemi executes a semijoin (keep=true) or antijoin (keep=false).
type cSemi struct {
	keep        bool
	strategy    semiStrategy
	keysetFirst bool  // evaluate the right key set first; empty → empty result
	left        cNode // nil when the left side is the probe target
	right       cNode // nil when the right side is the probe target
	probe       *cProbe
	lidx, ridx  []int
	residual    *expr.CompiledPair
	pred        *expr.CompiledPair // nested-loop predicate
	empty       *rel.Batch
}

func compileSemi(l, r Node, p expr.Expr, keep bool) (cNode, error) {
	ls, rs := l.Schema(), r.Schema()
	lcols, rcols, residual := expr.EquiPairs(p, ls, rs)
	_, rightProbe := shapeOf(r)
	c := &cSemi{keep: keep, empty: rel.NewBatch(ls)}
	c.keysetFirst = keep && !rightProbe

	var err error
	if !expr.IsTrueLit(residual) && len(lcols) > 0 {
		if c.residual, err = expr.CompilePair(residual, ls, rs); err != nil {
			return nil, err
		}
	}

	if keep && !rightProbe && len(lcols) > 0 && expr.IsTrueLit(residual) {
		if sh, ok := shapeOf(l); ok {
			c.strategy = semiProbeLeft
			if c.probe, err = compileProbe(sh, lcols); err != nil {
				return nil, err
			}
			if c.right, err = compileNode(r); err != nil {
				return nil, err
			}
			if c.ridx, err = rs.Indices(rcols); err != nil {
				return nil, err
			}
			return c, nil
		}
	}

	if c.left, err = compileNode(l); err != nil {
		return nil, err
	}
	if len(lcols) > 0 {
		if c.lidx, err = ls.Indices(lcols); err != nil {
			return nil, err
		}
		if rightProbe {
			c.strategy = semiProbeRight
			sh, _ := shapeOf(r)
			if c.probe, err = compileProbe(sh, rcols); err != nil {
				return nil, err
			}
			return c, nil
		}
		c.strategy = semiHash
		if c.right, err = compileNode(r); err != nil {
			return nil, err
		}
		if c.ridx, err = rs.Indices(rcols); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.strategy = semiNested
	if c.right, err = compileNode(r); err != nil {
		return nil, err
	}
	if c.pred, err = expr.CompilePair(p, ls, rs); err != nil {
		return nil, err
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
		t, err := c.probe.resolve(env)
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
		t, err := c.probe.resolve(env)
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
		if c.residual == nil || c.residual.EvalBool(lt, rt) {
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
// like AggregateRelation.
type cGroupBy struct {
	child  cNode
	keyIdx []int
	fns    []AggFn
	args   []*expr.Compiled // nil entry means COUNT(*)
	argIdx []int            // argStar, argComplex, or a plain column position
	empty  *rel.Batch
}

func compileGroupBy(g *GroupBy) (cNode, error) {
	child, err := compileNode(g.Child)
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
		if args[i], err = expr.Compile(a.Arg, cs); err != nil {
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
// child's vectors and builds the branch column only.
type cUnion struct {
	left, right cNode
	empty       *rel.Batch
	w           int // child width (without the branch attribute)
}

func compileUnion(u *UnionAll) (cNode, error) {
	left, err := compileNode(u.Left)
	if err != nil {
		return nil, err
	}
	right, err := compileNode(u.Right)
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
	branch := make([]uint64, out.N)
	for i := left.Len(); i < out.N; i++ {
		branch[i] = 1
	}
	out.Cols[c.w] = rel.ColVec{Kind: rel.VecInt, Nums: branch}
	return out, nil
}
