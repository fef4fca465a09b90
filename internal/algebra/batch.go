// Columnar kernels: what the compiled operators' run bodies (compile.go)
// are built from. They move column vectors (rel.Batch) instead of boxed
// tuples:
//
//   - σ runs type-specialized predicate loops over []int64 / []float64 /
//     []string payloads (no rel.Value boxing per row) and narrows the
//     batch with a selection vector — payloads are never copied;
//   - equi-joins over derived inputs hash 64-bit FNV-1a digests of the
//     canonical key encoding (no per-row string allocation) and emit
//     gather-vector pairs, so both join sides stay zero-copy; stored-side
//     probe joins fill the probe buffer from columns and append only the
//     probed tuples' values;
//   - γ pre-aggregates through an int64-keyed group map when the key
//     column is a uniform int vector, falling back to the canonical
//     encoded-key map otherwise.
//
// Every kernel reproduces the interpreted evaluator's semantics
// bit-for-bit: row order, float widening in comparisons (Value.compare),
// NULL folding (every comparison with NULL is false, including <>),
// EncodeKey-byte key equality (Value.KeyEqual holds exactly when the
// canonical encodings are equal — Same is coarser: it widens ints to
// floats — so hash buckets verified column-wise with KeyEqual reproduce
// string-keyed buckets exactly), group first-appearance order, and float
// aggregation fold order. Storage is touched through exactly the Handle
// calls Eval makes — batches form right after a charged Scan/Lookup and
// materialize only at the plan root — so state, reports and access
// counters are byte-identical to the oracle's.
//
// Three strategies are order-sensitive in ways columns cannot reproduce
// cheaply — the nested-loop θ-join, the nested-loop semijoin and the
// dedup-ordered semiProbeLeft. They stay row loops (nestedJoin, nestedSel,
// probeLeft below), but over batches: children arrive as batches and the
// result leaves as one, built from gather vectors.

package algebra

import (
	"strings"

	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ---------------------------------------------------------------------------
// Specialized predicate evaluation (σ)

// bTerm is one col-vs-literal comparison conjunct, specialized at compile
// time. op is applied as <col> op <lit> (flipped from the source when the
// literal was on the left).
type bTerm struct {
	col int
	op  expr.CmpOp
	lit rel.Value
}

// bPred is a batch-compiled predicate: the col-vs-literal conjuncts run
// as typed loops, any remaining conjuncts (rest) evaluate generically on
// scratch rows.
type bPred struct {
	terms []bTerm
	rest  *expr.Compiled // nil when the terms cover the whole predicate
	sel   []int32        // filter's candidate-selection scratch
}

// flipCmp mirrors a comparison for operand swap: lit op col ≡ col flip(op) lit.
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op
}

// compileBatchPred splits a predicate into specialized col-vs-literal
// terms and a generic rest, over the given input schema.
func compileBatchPred(e expr.Expr, sch rel.Schema) (*bPred, error) {
	p := &bPred{}
	var rest []expr.Expr
	for _, cj := range expr.Conjuncts(e) {
		if cm, ok := cj.(expr.Cmp); ok {
			if col, okc := cm.L.(expr.Col); okc {
				if lit, okl := cm.R.(expr.Lit); okl {
					if j := sch.Index(col.Name); j >= 0 {
						p.terms = append(p.terms, bTerm{col: j, op: cm.Op, lit: lit.Val})
						continue
					}
				}
			}
			if lit, okl := cm.L.(expr.Lit); okl {
				if col, okc := cm.R.(expr.Col); okc {
					if j := sch.Index(col.Name); j >= 0 {
						p.terms = append(p.terms, bTerm{col: j, op: flipCmp(cm.Op), lit: lit.Val})
						continue
					}
				}
			}
		}
		rest = append(rest, cj)
	}
	if len(rest) > 0 {
		r := expr.And(rest...)
		if !expr.IsTrueLit(r) {
			var err error
			if p.rest, err = expr.Compile(r, sch); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// cmpOutcome applies op to a Value.Compare outcome with Cmp.eval
// semantics: an incomparable pair (ok=false — NULL involved or
// non-numeric kind mismatch) is false for every operator, including <>.
func cmpOutcome(cv int, ok bool, op expr.CmpOp) bool {
	if !ok {
		return false
	}
	switch op {
	case expr.EQ:
		return cv == 0
	case expr.NE:
		return cv != 0
	case expr.LT:
		return cv < 0
	case expr.LE:
		return cv <= 0
	case expr.GT:
		return cv > 0
	case expr.GE:
		return cv >= 0
	}
	return false
}

// passFloat compares through the same three-way float ordering as
// Value.compare (NaN folds to "equal", matching the a<b/a>b/default
// switch there), then applies op.
func passFloat(a, b float64, op expr.CmpOp) bool {
	var cv int
	switch {
	case a < b:
		cv = -1
	case a > b:
		cv = 1
	}
	return cmpOutcome(cv, true, op)
}

// applyDense evaluates the term over all n logical rows of c, appending
// passing row indices to sel. The per-kind loops read payload slices
// directly — no Value is constructed per row.
func (tm *bTerm) applyDense(c *rel.ColVec, n int, sel []int32) []int32 {
	if tm.lit.IsNull() {
		return sel
	}
	idx, nulls := c.Idx, c.Nulls
	switch c.Kind {
	case rel.VecNull:
		return sel
	case rel.VecInt:
		if !tm.lit.IsNumeric() {
			return sel
		}
		litF := tm.lit.AsFloat()
		xs := c.Ints
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			if passFloat(float64(xs[p]), litF, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	case rel.VecFloat:
		if !tm.lit.IsNumeric() {
			return sel
		}
		litF := tm.lit.AsFloat()
		xs := c.Floats
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			if passFloat(xs[p], litF, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	case rel.VecStr:
		if tm.lit.Kind != rel.KindString {
			return sel
		}
		lit := tm.lit.Text()
		xs := c.Strs
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			if cmpOutcome(strings.Compare(xs[p], lit), true, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	case rel.VecBool:
		if tm.lit.Kind != rel.KindBool {
			return sel
		}
		lb := tm.lit.AsBool()
		xs := c.Bools
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			cv := 0
			switch {
			case xs[p] == lb:
			case !xs[p]:
				cv = -1
			default:
				cv = 1
			}
			if cmpOutcome(cv, true, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	default: // VecAny
		for i := 0; i < n; i++ {
			cv, ok := c.Vals[c.Phys(i)].Compare(tm.lit)
			if cmpOutcome(cv, ok, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// passAt evaluates the term for one logical row (secondary conjuncts,
// applied to an already-narrowed selection).
func (tm *bTerm) passAt(c *rel.ColVec, i int) bool {
	if tm.lit.IsNull() {
		return false
	}
	switch c.Kind {
	case rel.VecNull:
		return false
	case rel.VecInt:
		if !tm.lit.IsNumeric() {
			return false
		}
		p := c.Phys(i)
		if c.Nulls != nil && c.Nulls[p] {
			return false
		}
		return passFloat(float64(c.Ints[p]), tm.lit.AsFloat(), tm.op)
	case rel.VecFloat:
		if !tm.lit.IsNumeric() {
			return false
		}
		p := c.Phys(i)
		if c.Nulls != nil && c.Nulls[p] {
			return false
		}
		return passFloat(c.Floats[p], tm.lit.AsFloat(), tm.op)
	}
	cv, ok := c.Value(i).Compare(tm.lit)
	return cmpOutcome(cv, ok, tm.op)
}

// filter narrows a batch by the predicate, returning a gathered view
// (shared payloads, fresh selection vector). When every row passes it
// returns the input batch itself and when none does the caller's empty
// batch; neither case allocates — the candidate selection is built in
// scratch and copied, at its exact size, only when it is a proper subset.
func (p *bPred) filter(b, empty *rel.Batch) *rel.Batch {
	n := b.Len()
	if n == 0 || (len(p.terms) == 0 && p.rest == nil) {
		return b
	}
	sel := p.sel[:0]
	for t := range p.terms {
		tm := &p.terms[t]
		col := &b.Cols[tm.col]
		if t == 0 {
			sel = tm.applyDense(col, n, sel)
		} else {
			kept := sel[:0]
			for _, i := range sel {
				if tm.passAt(col, int(i)) {
					kept = append(kept, i)
				}
			}
			sel = kept
		}
		if len(sel) == 0 {
			break
		}
	}
	if p.rest != nil {
		var buf rel.Tuple
		if len(p.terms) == 0 {
			for i := 0; i < n; i++ {
				buf = b.Row(i, buf)
				if p.rest.EvalBool(buf) {
					sel = append(sel, int32(i))
				}
			}
		} else {
			kept := sel[:0]
			for _, i := range sel {
				buf = b.Row(int(i), buf)
				if p.rest.EvalBool(buf) {
					kept = append(kept, i)
				}
			}
			sel = kept
		}
	}
	p.sel = sel[:0]
	switch len(sel) {
	case n:
		return b
	case 0:
		return empty
	}
	return b.GatherRows(append([]int32(nil), sel...))
}

// ---------------------------------------------------------------------------
// Join kernels

// fnv1a64 hashes canonical key bytes (64-bit FNV-1a). Collisions are
// resolved by column-wise KeyEqual verification, never trusted.
func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// appendBatchKey appends the canonical encoding of the idx columns of
// logical row `row` — byte-identical to rel.AppendKey on the row's tuple.
func appendBatchKey(buf []byte, b *rel.Batch, idx []int, row int) []byte {
	for _, x := range idx {
		buf = b.Cols[x].Value(row).EncodeKey(buf)
	}
	return buf
}

// buildHashIdx hashes the idx columns of every row of b into digest
// buckets of row indices, ascending within a bucket.
func buildHashIdx(b *rel.Batch, idx []int) map[uint64][]int32 {
	ht := make(map[uint64][]int32, b.Len())
	var buf []byte
	for r, n := 0, b.Len(); r < n; r++ {
		buf = appendBatchKey(buf[:0], b, idx, r)
		h := fnv1a64(buf)
		ht[h] = append(ht[h], int32(r))
	}
	return ht
}

// keysSameIdx verifies an equi-key match column-wise with KeyEqual — the
// equality EncodeKey bytes encode, under which the buckets are filed.
func keysSameIdx(left, right *rel.Batch, lidx, ridx []int, li, ri int) bool {
	for k := range lidx {
		if !left.Cols[lidx[k]].Value(li).KeyEqual(right.Cols[ridx[k]].Value(ri)) {
			return false
		}
	}
	return true
}

// drivingLeft reports whether a probe join drives from its left input
// (and probes the stored right).
func (c *cJoin) drivingLeft() bool { return c.strategy == joinProbeRight }

// drive reports, for the two probe strategies, the driving side's key
// positions and the stored side's width.
func (c *cJoin) drive() (idx []int, storedW int) {
	if c.drivingLeft() {
		return c.lidx, c.rw
	}
	return c.ridx, c.lw
}

// probeJoin executes joinProbeRight/joinProbeLeft from a columnar driving
// side. Per driving row the stored table is probed through exactly the
// LookupInto calls Eval makes (fill the key, one charged lookup, gather the
// matches); the output is the driving side gathered by
// the match vector (zero-copy) beside the probed tuples' values in dense
// builders.
func (c *cJoin) probeJoin(t *storage.Handle, driving *rel.Batch) (*rel.Batch, error) {
	n := driving.Len()
	if n == 0 {
		return c.empty, nil
	}
	idx, storedW := c.drive()
	pr := c.probe
	// The match count is unknown until probed (selectivity can be ≪1), so
	// the stored builders size themselves by doubling rather than reserving
	// a row per driving row up front.
	stored := make([]rel.ColBuilder, storedW)
	G := make([]int32, 0, n)
	var scratch rel.Tuple
	for i := 0; i < n; i++ {
		if !pr.fill(driving, idx, i) {
			continue
		}
		rows, err := pr.lookup(t)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			continue
		}
		if c.residual != nil {
			scratch = driving.Row(i, scratch)
		}
		for _, mt := range rows {
			if c.residual != nil {
				lt, rt := scratch, mt
				if !c.drivingLeft() {
					lt, rt = mt, scratch
				}
				if !c.residual.EvalBool(lt, rt) {
					continue
				}
			}
			G = append(G, int32(i))
			for j := 0; j < storedW; j++ {
				stored[j].Append(mt[j])
			}
		}
	}
	if len(G) == 0 {
		return c.empty, nil
	}
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, c.lw+c.rw), N: len(G)}
	dcols, scols := out.Cols[:c.lw], out.Cols[c.lw:]
	if !c.drivingLeft() {
		scols, dcols = dcols, scols
	}
	copy(dcols, driving.GatherRows(G).Cols)
	for j := range stored {
		scols[j] = stored[j].Vec()
	}
	return out, nil
}

// hashJoin executes joinHash: digest buckets of row indices on the build
// side, candidates verified with KeyEqual, matches emitted as (left, right)
// gather-vector pairs — both outputs zero-copy.
func (c *cJoin) hashJoin(left, right *rel.Batch) *rel.Batch {
	n := left.Len()
	if n == 0 || right.Len() == 0 {
		return c.empty
	}
	ht := buildHashIdx(right, c.ridx)
	gl := make([]int32, 0, n)
	gr := make([]int32, 0, n)
	var buf []byte
	var lbuf, rbuf rel.Tuple
	for i := 0; i < n; i++ {
		buf = appendBatchKey(buf[:0], left, c.lidx, i)
		cands := ht[fnv1a64(buf)]
		if len(cands) == 0 {
			continue
		}
		if c.residual != nil {
			lbuf = left.Row(i, lbuf)
		}
		for _, ri := range cands {
			if !keysSameIdx(left, right, c.lidx, c.ridx, i, int(ri)) {
				continue
			}
			if c.residual != nil {
				rbuf = right.Row(int(ri), rbuf)
				if !c.residual.EvalBool(lbuf, rbuf) {
					continue
				}
			}
			gl = append(gl, int32(i))
			gr = append(gr, ri)
		}
	}
	return c.gatherPairs(left, right, gl, gr)
}

// nestedJoin is the θ-join. With no equi-column to hash or probe on there
// is nothing columnar to do: the inner side is boxed once and every pair
// is tested in (left, right) order. It is the only implementation of the
// strategy; only its inputs and its output are columnar.
func (c *cJoin) nestedJoin(left, right *rel.Batch) *rel.Batch {
	if left.Len() == 0 || right.Len() == 0 {
		return c.empty
	}
	rrows := right.Materialize().Tuples
	var gl, gr []int32
	var lbuf rel.Tuple
	for i := 0; i < left.Len(); i++ {
		lbuf = left.Row(i, lbuf)
		for j, rt := range rrows {
			if c.pred.EvalBool(lbuf, rt) {
				gl = append(gl, int32(i))
				gr = append(gr, int32(j))
			}
		}
	}
	return c.gatherPairs(left, right, gl, gr)
}

// gatherPairs lays out the matches of two derived sides: row gl[k] of the
// left beside row gr[k] of the right.
func (c *cJoin) gatherPairs(left, right *rel.Batch, gl, gr []int32) *rel.Batch {
	if len(gl) == 0 {
		return c.empty
	}
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, c.lw+c.rw), N: len(gl)}
	copy(out.Cols[:c.lw], left.GatherRows(gl).Cols)
	copy(out.Cols[c.lw:], right.GatherRows(gr).Cols)
	return out
}

// ---------------------------------------------------------------------------
// Semijoin / antijoin kernels

// probeLeft is semiProbeLeft: each distinct right key probes the stored
// left once and each left tuple is emitted once, in first-probe order — an
// order two hash sets define and no selection vector can express, so this
// strategy stays a row loop over the right batch. The emitted tuples come
// straight from charged lookups and become a batch here.
func (c *cSemi) probeLeft(t *storage.Handle, right *rel.Batch) (*rel.Batch, error) {
	var out []rel.Tuple
	seenKey := map[string]bool{}
	emitted := map[string]bool{}
	pr, buf := c.probe, c.keyBuf
	for i, n := 0, right.Len(); i < n; i++ {
		if !pr.fill(right, c.ridx, i) {
			continue
		}
		buf = rel.AppendTupleKey(buf[:0], pr.valsBuf[:pr.nJoin])
		if seenKey[string(buf)] {
			continue
		}
		seenKey[string(buf)] = true
		rows, err := pr.lookup(t)
		if err != nil {
			return nil, err
		}
		for _, lt := range rows {
			buf = rel.AppendTupleKey(buf[:0], lt)
			if !emitted[string(buf)] {
				emitted[string(buf)] = true
				out = append(out, lt)
			}
		}
	}
	c.keyBuf = buf
	return batchOf(c.empty, out), nil
}

// probeRightSel is semiProbeRight: keep/drop per left row by probing the
// stored right — the Handle calls of Eval's loop — as a selection vector.
func (c *cSemi) probeRightSel(t *storage.Handle, left *rel.Batch) ([]int32, error) {
	pr, n := c.probe, left.Len()
	sel := make([]int32, 0, n)
	var scratch rel.Tuple
	for i := 0; i < n; i++ {
		matched := false
		if pr.fill(left, c.lidx, i) {
			rows, err := pr.lookup(t)
			if err != nil {
				return nil, err
			}
			if c.residual == nil {
				matched = len(rows) > 0
			} else {
				scratch = left.Row(i, scratch)
				matched = c.anyMatch(scratch, rows)
			}
		}
		if matched == c.keep {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

// hashSel is semiHash: digest buckets over the right, each left row
// tested against its bucket.
func (c *cSemi) hashSel(left, right *rel.Batch) []int32 {
	ht := buildHashIdx(right, c.ridx)
	n := left.Len()
	sel := make([]int32, 0, n)
	var buf []byte
	var lbuf, rbuf rel.Tuple
	for i := 0; i < n; i++ {
		buf = appendBatchKey(buf[:0], left, c.lidx, i)
		matched := false
		for _, ri := range ht[fnv1a64(buf)] {
			if !keysSameIdx(left, right, c.lidx, c.ridx, i, int(ri)) {
				continue
			}
			if c.residual == nil {
				matched = true
				break
			}
			lbuf = left.Row(i, lbuf)
			rbuf = right.Row(int(ri), rbuf)
			if c.residual.EvalBool(lbuf, rbuf) {
				matched = true
				break
			}
		}
		if matched == c.keep {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// nestedSel is semiNested, the θ-semijoin: like nestedJoin, a row loop
// over the boxed inner side, returning the kept left rows.
func (c *cSemi) nestedSel(left, right *rel.Batch) []int32 {
	rrows := right.Materialize().Tuples
	var sel []int32
	var lbuf rel.Tuple
	for i := 0; i < left.Len(); i++ {
		lbuf = left.Row(i, lbuf)
		matched := false
		for _, rt := range rrows {
			if c.pred.EvalBool(lbuf, rt) {
				matched = true
				break
			}
		}
		if matched == c.keep {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// ---------------------------------------------------------------------------
// γ kernel

// bGroup is one aggregation group.
type bGroup struct {
	keyVals rel.Tuple
	states  []aggState
}

// fold folds the child's rows into groups, in first-appearance order, each
// group's rows in input order (float SUM is not associative). A single
// uniform-int key column uses an int64-keyed map — no key encoding, no
// string interning per group; any other key shape groups by the canonical
// encoded key. Group identity is equality of EncodeKey bytes in both paths
// (a uniform VecInt column contains only KindInt values, whose encodings
// are a bijection of the int).
func (c *cGroupBy) fold(child *rel.Batch) []*bGroup {
	var order []*bGroup
	intKey := len(c.keyIdx) == 1 && child.Cols[c.keyIdx[0]].Kind == rel.VecInt
	var byInt map[int64]*bGroup
	var nullGrp *bGroup
	var byKey map[string]*bGroup
	if intKey {
		byInt = make(map[int64]*bGroup)
	} else {
		byKey = make(map[string]*bGroup)
	}
	var buf []byte
	var scratch rel.Tuple
	for i, n := 0, child.Len(); i < n; i++ {
		var grp *bGroup
		if intKey {
			kc := &child.Cols[c.keyIdx[0]]
			p := kc.Phys(i)
			if kc.Nulls != nil && kc.Nulls[p] {
				if nullGrp == nil {
					nullGrp = c.newBGroup(child, i)
					order = append(order, nullGrp)
				}
				grp = nullGrp
			} else {
				k := kc.Ints[p]
				g, ok := byInt[k]
				if !ok {
					g = c.newBGroup(child, i)
					byInt[k] = g
					order = append(order, g)
				}
				grp = g
			}
		} else {
			buf = appendBatchKey(buf[:0], child, c.keyIdx, i)
			g, ok := byKey[string(buf)]
			if !ok {
				g = c.newBGroup(child, i)
				byKey[string(buf)] = g
				order = append(order, g)
			}
			grp = g
		}
		for a := range c.fns {
			switch j := c.argIdx[a]; {
			case j == argStar:
				grp.states[a].add(rel.Null(), true)
			case j >= 0:
				grp.states[a].add(child.Cols[j].Value(i), false)
			default:
				scratch = child.Row(i, scratch)
				grp.states[a].add(c.args[a].Eval(scratch), false)
			}
		}
	}
	return order
}

func (c *cGroupBy) newBGroup(child *rel.Batch, i int) *bGroup {
	kv := make(rel.Tuple, len(c.keyIdx))
	for k, x := range c.keyIdx {
		kv[k] = child.Cols[x].Value(i)
	}
	states := make([]aggState, len(c.fns))
	for k, fn := range c.fns {
		states[k] = aggState{fn: fn, sum: rel.Null(), best: rel.Null()}
	}
	return &bGroup{keyVals: kv, states: states}
}

// emitGroups lays the groups out columnarly in slice order.
func (c *cGroupBy) emitGroups(groups []*bGroup) *rel.Batch {
	kw := len(c.keyIdx)
	builders := make([]rel.ColBuilder, kw+len(c.fns))
	for i := range builders {
		builders[i].Grow(len(groups))
	}
	for _, g := range groups {
		for i := 0; i < kw; i++ {
			builders[i].Append(g.keyVals[i])
		}
		for i := range g.states {
			builders[kw+i].Append(g.states[i].result())
		}
	}
	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, kw+len(c.fns)), N: len(groups)}
	for i := range builders {
		out.Cols[i] = builders[i].Vec()
	}
	return out
}
