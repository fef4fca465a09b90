// Plan compilation: Compile turns a logical plan into an ExecPlan, a
// reusable executable form in which everything the interpreted evaluator
// re-derives on every call is resolved exactly once — column positions,
// predicate bindings, equi-join pairs, and the join/semijoin/probe
// strategy. A Δ-script's steps are compiled at view-registration time and
// the executor runs the compiled form every maintenance round; Eval stays
// as the reference oracle.
//
// The compiled and interpreted paths are built from the same shape
// analysis (shapeOf) and the same selection split (expr.EqLiterals), and
// charge stored accesses through the same Table entry points, so for every
// plan they perform identical stored accesses: state, reports and access
// counters match tuple-for-tuple. The differential suite in internal/ivm
// asserts this on randomized plans.
//
// An ExecPlan owns mutable probe scratch (key-encoding buffers, probe
// result buffers), so a single ExecPlan must not be Run concurrently with
// itself. The Δ-script executor satisfies this: each step runs at most
// once per round, and concurrently scheduled steps hold distinct plans.
//
// When the environment implements OpParallelEnv (pool.go) the hot
// strategies additionally run partition-parallel kernels (kernels.go):
// parts or chunks are processed by a bounded worker pool, each worker on
// private scratch and a private counter shard, and merged in a fixed
// order — output, reports and counters stay byte-identical to the
// sequential run.
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

// Run executes the compiled plan against an environment. Stored tables are
// resolved through env on every run, so WithCounter sharding keeps working:
// the plan pins strategies, not table handles or counters. When the
// environment requests a positive BatchSize, the plan runs through the
// columnar kernels (batch.go) and materializes tuples only here, at the
// root — storage access and charging are identical either way.
func (p *ExecPlan) Run(env Env) (*rel.Relation, error) {
	if bs := batchSize(env); bs > 0 {
		b, err := runNodeBatch(p.root, env, bs)
		if err != nil {
			return nil, err
		}
		return b.Materialize(bs), nil
	}
	return p.root.run(env)
}

// cNode is one compiled operator.
type cNode interface {
	run(env Env) (*rel.Relation, error)
}

func compileNode(n Node) (cNode, error) {
	switch x := n.(type) {
	case *Scan:
		return &cStored{table: x.Table, st: x.St, sch: x.schema}, nil
	case *Empty:
		return &cEmpty{sch: x.Sch}, nil
	case *RelRef:
		if x.Stored {
			return &cStored{table: x.Name, st: x.St, sch: x.Sch}, nil
		}
		return &cBinding{name: x.Name, sch: x.Sch}, nil
	case *Select:
		if sh, ok := shapeOf(x); ok {
			return compileStoredSelect(sh)
		}
		child, err := compileNode(x.Child)
		if err != nil {
			return nil, err
		}
		pred, err := expr.Compile(x.Pred, x.Child.Schema())
		if err != nil {
			return nil, err
		}
		bpred, err := compileBatchPred(x.Pred, x.Child.Schema())
		if err != nil {
			return nil, err
		}
		return &cSelect{child: child, pred: pred, bpred: bpred, sch: x.Child.Schema()}, nil
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

// cStored scans a stored table (Scan or stored RelRef leaf). The result
// aliases table storage copy-on-write, exactly like the interpreted leaf.
type cStored struct {
	table string
	st    rel.State
	sch   rel.Schema
}

func (c *cStored) run(env Env) (*rel.Relation, error) {
	t, err := env.Table(c.table)
	if err != nil {
		return nil, err
	}
	if w := opWorkers(env); w > 1 {
		if out, ok := scanPartsParallel(c.sch, t, c.st, w); ok {
			return out, nil
		}
	}
	return aliasTuples(c.sch, t.Scan(c.st)), nil
}

// cBinding reads a named in-memory relation.
type cBinding struct {
	name string
	sch  rel.Schema
}

func (c *cBinding) run(env Env) (*rel.Relation, error) {
	rr, err := env.Rel(c.name)
	if err != nil {
		return nil, err
	}
	return aliasTuples(c.sch, rr.Tuples), nil
}

type cEmpty struct{ sch rel.Schema }

func (c *cEmpty) run(Env) (*rel.Relation, error) { return rel.NewRelation(c.sch), nil }

// cSelect filters a derived child with a precompiled predicate.
type cSelect struct {
	child cNode
	pred  *expr.Compiled
	bpred *bPred // batch-specialized form of pred
	sch   rel.Schema
}

func (c *cSelect) run(env Env) (*rel.Relation, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(c.sch)
	for _, t := range child.Tuples {
		if c.pred.EvalBool(t) {
			out.Add(t)
		}
	}
	return out, nil
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
	sch      rel.Schema
	eqBare   []string
	eqVals   []rel.Value
	prep     rel.PrepLookup
	residual *expr.Compiled // after removing the eq literals; nil when TRUE
	full     *expr.Compiled // the whole predicate, for the scan path
	bfull    *bPred         // batch-specialized form of full
	keyBuf   []byte
}

func compileStoredSelect(sh *probeShape) (cNode, error) {
	cols, vals, residual := expr.EqLiterals(sh.extra, sh.schema)
	full, err := expr.Compile(sh.extra, sh.schema)
	if err != nil {
		return nil, err
	}
	c := &cStoredSelect{table: sh.table, st: sh.st, sch: sh.schema, eqVals: vals, full: full}
	if c.bfull, err = compileBatchPred(sh.extra, sh.schema); err != nil {
		return nil, err
	}
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

func (c *cStoredSelect) run(env Env) (*rel.Relation, error) {
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
			// The result slice is retained by the output relation, so it is
			// freshly allocated; only the key buffer is reused across runs.
			rows, keyBuf, err := t.LookupInto(c.st, c.prep, c.eqVals, c.keyBuf, make([]rel.Tuple, 0, p))
			c.keyBuf = keyBuf
			if err != nil {
				return nil, err
			}
			if c.residual == nil {
				return aliasTuples(c.sch, rows), nil
			}
			out := rel.NewRelation(c.sch)
			for _, r := range rows {
				if c.residual.EvalBool(r) {
					out.Add(r)
				}
			}
			return out, nil
		}
	}
	if w := opWorkers(env); w > 1 {
		if out, ok := c.scanFilterParallel(t, w); ok {
			return out, nil
		}
	}
	out := rel.NewRelation(c.sch)
	for _, r := range t.Scan(c.st) {
		if c.full.EvalBool(r) {
			out.Add(r)
		}
	}
	return out, nil
}

// cProject applies precompiled projection expressions, laying output
// tuples out in one backing array per run instead of one allocation per
// tuple.
type cProject struct {
	items  []*expr.Compiled
	colIdx []int // child column position for plain Col items, -1 otherwise
	child  cNode
	sch    rel.Schema
}

func compileProject(p *Project) (cNode, error) {
	child, err := compileNode(p.Child)
	if err != nil {
		return nil, err
	}
	cs := p.Child.Schema()
	items := make([]*expr.Compiled, len(p.Items))
	colIdx := make([]int, len(p.Items))
	for i, it := range p.Items {
		c, err := expr.Compile(it.E, cs)
		if err != nil {
			return nil, err
		}
		items[i] = c
		colIdx[i] = -1
		if col, ok := it.E.(expr.Col); ok {
			colIdx[i] = cs.Index(col.Name)
		}
	}
	return &cProject{items: items, colIdx: colIdx, child: child, sch: p.Schema()}, nil
}

func (c *cProject) run(env Env) (*rel.Relation, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	w := len(c.items)
	out := rel.NewRelation(c.sch)
	out.Tuples = make([]rel.Tuple, 0, len(child.Tuples))
	backing := make([]rel.Value, len(child.Tuples)*w)
	for _, t := range child.Tuples {
		nt := backing[:w:w]
		backing = backing[w:]
		for i, item := range c.items {
			if j := c.colIdx[i]; j >= 0 {
				nt[i] = t[j] // plain column: no closure, no allocation
			} else {
				nt[i] = item.Eval(t)
			}
		}
		out.Tuples = append(out.Tuples, nt)
	}
	return out, nil
}

// tupleArena batch-allocates fixed-width output tuples. It is created per
// run: its chunks are retained by the emitted relation.
type tupleArena struct {
	w   int
	buf []rel.Value
}

func (a *tupleArena) next() rel.Tuple {
	if len(a.buf) < a.w {
		n := 256 * a.w
		a.buf = make([]rel.Value, n)
	}
	t := a.buf[:a.w:a.w]
	a.buf = a.buf[a.w:]
	return t
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
	keyBuf  []byte
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

// lookup probes the resolved table with the join values previously written
// into valsBuf[:nJoin]. The returned slice is valid until the next lookup.
func (p *cProbe) lookup(t *storage.Handle) ([]rel.Tuple, error) {
	rows, keyBuf, err := t.LookupInto(p.st, p.prep, p.valsBuf, p.keyBuf, p.rowsBuf[:0])
	p.keyBuf = keyBuf
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
	sch        rel.Schema
	lw, rw     int // child widths, for output tuple layout
	keyBuf     []byte

	// heavy is the per-round heavy-lane cache (skew.go): probe results for
	// driving keys whose stored-side frequency crossed the SkewThreshold.
	// Rebuilt by prepareHeavy/prepareHeavyBatch before each probe round;
	// nil whenever the heavy lane is off. Read-only once the probe loops
	// (including parallel workers) start.
	heavy map[string][]rel.Tuple
}

func compileJoin(j *Join) (cNode, error) {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	lcols, rcols, residual := expr.EquiPairs(j.Pred, ls, rs)
	c := &cJoin{
		sch: j.Schema(),
		lw:  len(ls.Attrs),
		rw:  len(rs.Attrs),
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

func (c *cJoin) run(env Env) (*rel.Relation, error) {
	// Diff-driven short-circuit: evaluate the stored-free side first; an
	// empty diff makes the join free. The result is reused below — that
	// side charges nothing, so charges match the interpreted re-evaluation.
	var left, right *rel.Relation
	var err error
	if c.shortLeft && c.left != nil {
		if left, err = c.left.run(env); err != nil {
			return nil, err
		}
		if left.Len() == 0 {
			return rel.NewRelation(c.sch), nil
		}
	} else if c.shortRight && c.right != nil {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return rel.NewRelation(c.sch), nil
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

	out := rel.NewRelation(c.sch)
	arena := tupleArena{w: c.lw + c.rw}
	emit := func(lt, rt rel.Tuple) {
		nt := arena.next()
		copy(nt, lt)
		copy(nt[c.lw:], rt)
		out.Tuples = append(out.Tuples, nt)
	}

	switch c.strategy {
	case joinProbeRight:
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		if err := c.prepareHeavy(env, t, left.Tuples, true); err != nil {
			return nil, err
		}
		if w := opWorkers(env); w > 1 && len(left.Tuples) >= MinOpRows {
			return c.probeParallel(t, left.Tuples, true, w)
		}
		for _, lt := range left.Tuples {
			for i, x := range c.lidx {
				c.probe.valsBuf[i] = lt[x]
			}
			if hasNull(c.probe.valsBuf[:c.probe.nJoin]) {
				continue
			}
			rows, cached := c.heavyLookup(c.probe)
			if !cached {
				if rows, err = c.probe.lookup(t); err != nil {
					return nil, err
				}
			}
			for _, rt := range rows {
				if c.residual == nil || c.residual.EvalBool(lt, rt) {
					emit(lt, rt)
				}
			}
		}
		return out, nil
	case joinProbeLeft:
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		if err := c.prepareHeavy(env, t, right.Tuples, false); err != nil {
			return nil, err
		}
		if w := opWorkers(env); w > 1 && len(right.Tuples) >= MinOpRows {
			return c.probeParallel(t, right.Tuples, false, w)
		}
		for _, rt := range right.Tuples {
			for i, x := range c.ridx {
				c.probe.valsBuf[i] = rt[x]
			}
			if hasNull(c.probe.valsBuf[:c.probe.nJoin]) {
				continue
			}
			rows, cached := c.heavyLookup(c.probe)
			if !cached {
				if rows, err = c.probe.lookup(t); err != nil {
					return nil, err
				}
			}
			for _, lt := range rows {
				if c.residual == nil || c.residual.EvalBool(lt, rt) {
					emit(lt, rt)
				}
			}
		}
		return out, nil
	case joinHash:
		if w := opWorkers(env); w > 1 && len(left.Tuples)+len(right.Tuples) >= MinOpRows {
			return c.hashParallel(left.Tuples, right.Tuples, w)
		}
		buckets := make(map[string][]rel.Tuple, len(right.Tuples))
		buf := c.keyBuf
		for _, rt := range right.Tuples {
			buf = rel.AppendKey(buf[:0], rt, c.ridx)
			k := string(buf)
			buckets[k] = append(buckets[k], rt)
		}
		for _, lt := range left.Tuples {
			buf = rel.AppendKey(buf[:0], lt, c.lidx)
			for _, rt := range buckets[string(buf)] {
				if c.residual == nil || c.residual.EvalBool(lt, rt) {
					emit(lt, rt)
				}
			}
		}
		c.keyBuf = buf
		return out, nil
	default: // joinNested
		for _, lt := range left.Tuples {
			for _, rt := range right.Tuples {
				if c.pred.EvalBool(lt, rt) {
					emit(lt, rt)
				}
			}
		}
		return out, nil
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
	sch         rel.Schema
	keyBuf      []byte
}

func compileSemi(l, r Node, p expr.Expr, keep bool) (cNode, error) {
	ls, rs := l.Schema(), r.Schema()
	lcols, rcols, residual := expr.EquiPairs(p, ls, rs)
	_, rightProbe := shapeOf(r)
	c := &cSemi{keep: keep, sch: ls}
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

func (c *cSemi) run(env Env) (*rel.Relation, error) {
	var right *rel.Relation
	var err error
	if c.keysetFirst {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return rel.NewRelation(c.sch), nil
		}
	}

	if c.strategy == semiProbeLeft {
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		out := rel.NewRelation(c.sch)
		seenKey := map[string]bool{}
		emitted := map[string]bool{}
		buf := c.keyBuf
		for _, rt := range right.Tuples {
			for i, x := range c.ridx {
				c.probe.valsBuf[i] = rt[x]
			}
			if hasNull(c.probe.valsBuf[:c.probe.nJoin]) {
				continue
			}
			buf = rel.AppendTupleKey(buf[:0], c.probe.valsBuf[:c.probe.nJoin])
			if seenKey[string(buf)] {
				continue
			}
			seenKey[string(buf)] = true
			rows, err := c.probe.lookup(t)
			if err != nil {
				return nil, err
			}
			for _, lt := range rows {
				buf = rel.AppendTupleKey(buf[:0], lt)
				if !emitted[string(buf)] {
					emitted[string(buf)] = true
					out.Add(lt)
				}
			}
		}
		c.keyBuf = buf
		return out, nil
	}

	left, err := c.left.run(env)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(c.sch)
	if left.Len() == 0 {
		return out, nil
	}

	switch c.strategy {
	case semiProbeRight:
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		if w := opWorkers(env); w > 1 && len(left.Tuples) >= MinOpRows {
			return c.probeRightParallel(t, left.Tuples, w)
		}
		for _, lt := range left.Tuples {
			for i, x := range c.lidx {
				c.probe.valsBuf[i] = lt[x]
			}
			matched := false
			if !hasNull(c.probe.valsBuf[:c.probe.nJoin]) {
				rows, err := c.probe.lookup(t)
				if err != nil {
					return nil, err
				}
				matched = c.anyMatch(lt, rows)
			}
			if matched == c.keep {
				out.Add(lt)
			}
		}
		return out, nil
	case semiHash:
		if right == nil {
			if right, err = c.right.run(env); err != nil {
				return nil, err
			}
		}
		buckets := make(map[string][]rel.Tuple, len(right.Tuples))
		buf := c.keyBuf
		for _, rt := range right.Tuples {
			buf = rel.AppendKey(buf[:0], rt, c.ridx)
			k := string(buf)
			buckets[k] = append(buckets[k], rt)
		}
		if w := opWorkers(env); w > 1 && len(left.Tuples) >= MinOpRows {
			c.keyBuf = buf
			return c.hashProbeParallel(left.Tuples, buckets, w), nil
		}
		for _, lt := range left.Tuples {
			buf = rel.AppendKey(buf[:0], lt, c.lidx)
			if c.anyMatch(lt, buckets[string(buf)]) == c.keep {
				out.Add(lt)
			}
		}
		c.keyBuf = buf
		return out, nil
	default: // semiNested
		if right == nil {
			if right, err = c.right.run(env); err != nil {
				return nil, err
			}
		}
		for _, lt := range left.Tuples {
			matched := false
			for _, rt := range right.Tuples {
				if c.pred.EvalBool(lt, rt) {
					matched = true
					break
				}
			}
			if matched == c.keep {
				out.Add(lt)
			}
		}
		return out, nil
	}
}

func (c *cSemi) anyMatch(lt rel.Tuple, rows []rel.Tuple) bool {
	for _, rt := range rows {
		if c.residual == nil || c.residual.EvalBool(lt, rt) {
			return true
		}
	}
	return false
}

// cGroupBy hash-aggregates with precompiled aggregate arguments and
// resolved key positions; group order follows first appearance, exactly
// like AggregateRelation.
type cGroupBy struct {
	child  cNode
	keyIdx []int
	fns    []AggFn
	args   []*expr.Compiled // nil entry means COUNT(*)
	argIdx []int            // argStar, argComplex, or a plain column position
	sch    rel.Schema
	keyBuf []byte
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
	return &cGroupBy{child: child, keyIdx: keyIdx, fns: fns, args: args, argIdx: argIdx, sch: g.Schema()}, nil
}

func (c *cGroupBy) run(env Env) (*rel.Relation, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	if w := opWorkers(env); w > 1 && len(child.Tuples) >= MinOpRows {
		return c.groupParallel(child.Tuples, w)
	}
	type group struct {
		keyVals rel.Tuple
		states  []aggState
	}
	byKey := make(map[string]*group)
	var order []*group
	buf := c.keyBuf
	for _, t := range child.Tuples {
		buf = rel.AppendKey(buf[:0], t, c.keyIdx)
		grp, ok := byKey[string(buf)]
		if !ok {
			kv := make(rel.Tuple, len(c.keyIdx))
			for i, j := range c.keyIdx {
				kv[i] = t[j]
			}
			states := make([]aggState, len(c.fns))
			for i, fn := range c.fns {
				states[i] = aggState{fn: fn, sum: rel.Null(), best: rel.Null()}
			}
			grp = &group{keyVals: kv, states: states}
			byKey[string(buf)] = grp
			order = append(order, grp)
		}
		for i := range c.fns {
			if c.args[i] == nil {
				grp.states[i].add(rel.Null(), true)
			} else {
				grp.states[i].add(c.args[i].Eval(t), false)
			}
		}
	}
	c.keyBuf = buf
	out := rel.NewRelation(c.sch)
	w := len(c.keyIdx) + len(c.fns)
	backing := make([]rel.Value, len(order)*w)
	for _, grp := range order {
		nt := backing[:w:w]
		backing = backing[w:]
		copy(nt, grp.keyVals)
		for i := range grp.states {
			nt[len(c.keyIdx)+i] = grp.states[i].result()
		}
		out.Add(nt)
	}
	return out, nil
}

// cUnion appends the branch attribute while copying, like evalUnion.
type cUnion struct {
	left, right cNode
	sch         rel.Schema
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
	return &cUnion{left: left, right: right, sch: u.Schema(), w: len(u.Left.Schema().Attrs)}, nil
}

func (c *cUnion) run(env Env) (*rel.Relation, error) {
	left, err := c.left.run(env)
	if err != nil {
		return nil, err
	}
	right, err := c.right.run(env)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(c.sch)
	out.Tuples = make([]rel.Tuple, 0, len(left.Tuples)+len(right.Tuples))
	arena := tupleArena{w: c.w + 1}
	emit := func(t rel.Tuple, branch rel.Value) {
		nt := arena.next()
		copy(nt, t)
		nt[c.w] = branch
		out.Tuples = append(out.Tuples, nt)
	}
	for _, t := range left.Tuples {
		emit(t, rel.Int(0))
	}
	for _, t := range right.Tuples {
		emit(t, rel.Int(1))
	}
	return out, nil
}
