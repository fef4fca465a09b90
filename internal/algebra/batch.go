// Columnar kernels: what the compiled operators' run bodies (compile.go)
// are built from. They move column vectors (rel.Batch) instead of boxed
// tuples:
//
//   - σ runs type-specialized predicate loops over []int64 / []float64 /
//     []string payloads (no rel.Value boxing per row) and narrows the
//     batch with a selection vector — payloads are never copied;
//   - equi-joins and semijoins over derived inputs, γ and the two sets of
//     semiProbeLeft file rows under the 64-bit key digest the stored indexes
//     use (rel.KeyDigest, computed a column at a time by Batch.KeyDigests)
//     in a flat digest → chain table (rel.DigestChains): no key is encoded,
//     no string or bucket is allocated per row, and every candidate on a
//     chain is verified column-wise with KeyEqual; joins emit gather-vector
//     pairs, so both sides stay zero-copy; stored-side probe joins fill the
//     probe buffer from columns and append only the probed tuples' values;
//   - γ numbers its groups in first-appearance order, knows each by its
//     first row (the output's key columns are the input's, gathered there)
//     and carves their aggregate states from one array.
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
// nothing between two charged calls depends on the layout — so state,
// reports and access counters are byte-identical to the oracle's.
//
// Three strategies are order-sensitive in ways columns cannot reproduce
// cheaply — the nested-loop θ-join, the nested-loop semijoin and the
// dedup-ordered semiProbeLeft. They stay row loops (nestedJoin, nestedSel,
// probeLeft below), but over batches: children arrive as batches and the
// result leaves as one, built from gather vectors.

package algebra

import (
	"math"
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
	idx, kinds := c.Idx, c.Kinds
	switch c.Kind {
	case rel.VecNull:
		return sel
	case rel.VecInt, rel.VecFloat:
		if !tm.lit.IsNumeric() {
			return sel
		}
		litF, isInt := tm.lit.AsFloat(), c.Kind == rel.VecInt
		xs := c.Nums
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if kinds != nil && kinds[p] == rel.KindNull {
				continue
			}
			x := math.Float64frombits(xs[p])
			if isInt {
				x = float64(int64(xs[p]))
			}
			if passFloat(x, litF, tm.op) {
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
			if kinds != nil && kinds[p] == rel.KindNull {
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
		xs := c.Nums
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if kinds != nil && kinds[p] == rel.KindNull {
				continue
			}
			cv := 0
			switch {
			case (xs[p] != 0) == lb:
			case xs[p] == 0:
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
			cv, ok := c.Value(i).Compare(tm.lit)
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
	case rel.VecInt, rel.VecFloat:
		if !tm.lit.IsNumeric() {
			return false
		}
		p := c.Phys(i)
		if c.Kinds != nil && c.Kinds[p] == rel.KindNull {
			return false
		}
		x := math.Float64frombits(c.Nums[p])
		if c.Kind == rel.VecInt {
			x = float64(int64(c.Nums[p]))
		}
		return passFloat(x, tm.lit.AsFloat(), tm.op)
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

// keyMask narrows the key digests the hash kernels file rows under: all ones
// outside tests, which cut it to a few bits so that unequal keys share chains
// and every match is seen to rest on KeyEqual, never on a digest.
var keyMask = ^uint64(0)

// keyDigests is the digest (rel.KeyDigest) of every row's idx columns.
func keyDigests(b *rel.Batch, idx []int) []uint64 {
	dig := b.KeyDigests(idx)
	if keyMask != ^uint64(0) {
		for i := range dig {
			dig[i] &= keyMask
		}
	}
	return dig
}

// buildHashIdx files every row of b under the digest of its idx columns, last
// row first, so each chain lists its rows in ascending order.
func buildHashIdx(b *rel.Batch, idx []int) *rel.DigestChains {
	ht := &rel.DigestChains{}
	ht.Reserve(b.Len())
	dig := keyDigests(b, idx)
	for r := b.Len() - 1; r >= 0; r-- {
		ht.Push(dig[r], int32(r))
	}
	return ht
}

// keysSameIdx verifies an equi-key match column-wise with KeyEqual — the
// equality of EncodeKey bytes, which Eval's string-keyed buckets go by and
// under which KeyEqual keys share a digest (rel.FuzzValueKey).
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
	pr := c.pr
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
		if c.match != nil {
			scratch = driving.Row(i, scratch)
		}
		for _, mt := range rows {
			if c.match != nil {
				lt, rt := scratch, mt
				if !c.drivingLeft() {
					lt, rt = mt, scratch
				}
				if !c.match.EvalBool(lt, rt) {
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

// hashJoin executes joinHash: digest chains of row indices on the build
// side, candidates verified with KeyEqual, matches emitted as (left, right)
// gather-vector pairs — both outputs zero-copy.
func (c *cJoin) hashJoin(left, right *rel.Batch) *rel.Batch {
	n := left.Len()
	if n == 0 || right.Len() == 0 {
		return c.empty
	}
	ht := buildHashIdx(right, c.ridx)
	ldig := keyDigests(left, c.lidx)
	gl := make([]int32, 0, n)
	gr := make([]int32, 0, n)
	var lbuf, rbuf rel.Tuple
	for i := 0; i < n; i++ {
		ri := ht.First(ldig[i])
		if ri < 0 {
			continue
		}
		if c.match != nil {
			lbuf = left.Row(i, lbuf)
		}
		for ; ri >= 0; ri = ht.Next(ri) {
			if !keysSameIdx(left, right, c.lidx, c.ridx, i, int(ri)) {
				continue
			}
			if c.match != nil {
				rbuf = right.Row(int(ri), rbuf)
				if !c.match.EvalBool(lbuf, rbuf) {
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
			if c.match == nil || c.match.EvalBool(lbuf, rt) {
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
// order two sets define and no selection vector can express, so this
// strategy stays a row loop over the right batch. The sets are digest chains:
// seen files right rows, emitted the tuples of out, and membership is KeyEqual
// on the key columns and on the whole tuple. The emitted tuples come straight
// from charged lookups and become a batch here.
func (c *cSemi) probeLeft(t *storage.Handle, right *rel.Batch) (*rel.Batch, error) {
	var out []rel.Tuple
	var seen, emitted rel.DigestChains
	seen.Reserve(right.Len())
	pr, rdig := c.pr, keyDigests(right, c.ridx)
next:
	for i, n := 0, right.Len(); i < n; i++ {
		if !pr.fill(right, c.ridx, i) {
			continue
		}
		for e := seen.First(rdig[i]); e >= 0; e = seen.Next(e) {
			if keysSameIdx(right, right, c.ridx, c.ridx, i, int(e)) {
				continue next
			}
		}
		seen.Push(rdig[i], int32(i))
		rows, err := pr.lookup(t)
		if err != nil {
			return nil, err
		}
	emit:
		for _, lt := range rows {
			d := rel.KeyDigest(lt) & keyMask
			for e := emitted.First(d); e >= 0; e = emitted.Next(e) {
				if tupleKeyEqual(out[e], lt) {
					continue emit
				}
			}
			emitted.Push(d, int32(len(out)))
			out = append(out, lt)
		}
	}
	return batchOf(c.empty, out), nil
}

// tupleKeyEqual reports whether two tuples of one table are KeyEqual value by
// value — equal TupleKey encodings.
func tupleKeyEqual(a, b rel.Tuple) bool {
	for j := range a {
		if !a[j].KeyEqual(b[j]) {
			return false
		}
	}
	return true
}

// probeRightSel is semiProbeRight: keep/drop per left row by probing the
// stored right — the Handle calls of Eval's loop — as a selection vector.
func (c *cSemi) probeRightSel(t *storage.Handle, left *rel.Batch) ([]int32, error) {
	pr, n := c.pr, left.Len()
	sel := make([]int32, 0, n)
	var scratch rel.Tuple
	for i := 0; i < n; i++ {
		matched := false
		if pr.fill(left, c.lidx, i) {
			rows, err := pr.lookup(t)
			if err != nil {
				return nil, err
			}
			if c.match == nil {
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

// hashSel is semiHash: digest chains over the right, each left row
// tested against its chain.
func (c *cSemi) hashSel(left, right *rel.Batch) []int32 {
	ht := buildHashIdx(right, c.ridx)
	ldig := keyDigests(left, c.lidx)
	n := left.Len()
	sel := make([]int32, 0, n)
	var lbuf, rbuf rel.Tuple
	for i := 0; i < n; i++ {
		matched := false
		for ri := ht.First(ldig[i]); ri >= 0; ri = ht.Next(ri) {
			if !keysSameIdx(left, right, c.lidx, c.ridx, i, int(ri)) {
				continue
			}
			if c.match == nil {
				matched = true
				break
			}
			lbuf = left.Row(i, lbuf)
			rbuf = right.Row(int(ri), rbuf)
			if c.match.EvalBool(lbuf, rbuf) {
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
			if c.match == nil || c.match.EvalBool(lbuf, rt) {
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

// fold aggregates the child's rows by key, groups in first-appearance order,
// each group's rows in input order (float SUM is not associative). One pass
// numbers the groups: a group is filed under the digest of its key and known
// by its first row, and a row joins the group on its digest's chain whose
// first row is KeyEqual to it on the key columns — equal EncodeKey bytes, the
// oracle's group identity — or founds one. The second pass folds each row
// into its group's states, which are carved from one array of exactly
// groups × aggregates entries; the key values are never copied — the output's
// key columns are the child's, gathered at the groups' first rows.
func (c *cGroupBy) fold(child *rel.Batch) *rel.Batch {
	n, kw, na := child.Len(), len(c.keyIdx), len(c.fns)
	dig := keyDigests(child, c.keyIdx)
	var ht rel.DigestChains
	ht.Reserve(n)
	gid := make([]int32, n) // row → group
	var first []int32       // group → its first row
	for i := 0; i < n; i++ {
		g := ht.First(dig[i])
		for ; g >= 0; g = ht.Next(g) {
			if keysSameIdx(child, child, c.keyIdx, c.keyIdx, i, int(first[g])) {
				break
			}
		}
		if g < 0 {
			g = int32(len(first))
			ht.Push(dig[i], g)
			first = append(first, int32(i))
		}
		gid[i] = g
	}

	states := make([]aggState, len(first)*na)
	for k := range states {
		states[k] = aggState{fn: c.fns[k%na], sum: rel.Null(), best: rel.Null()}
	}
	var scratch rel.Tuple
	for i := 0; i < n; i++ {
		st := states[int(gid[i])*na:]
		for a := range c.fns {
			switch j := c.argIdx[a]; {
			case j == argStar:
				st[a].add(rel.Null(), true)
			case j >= 0:
				st[a].add(child.Cols[j].Value(i), false)
			default:
				scratch = child.Row(i, scratch)
				st[a].add(c.args[a].Eval(scratch), false)
			}
		}
	}

	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, kw+na), N: len(first)}
	heads := child.GatherRows(first)
	for k, x := range c.keyIdx {
		out.Cols[k] = heads.Cols[x]
	}
	for a := 0; a < na; a++ {
		var cb rel.ColBuilder
		cb.Grow(len(first))
		for g := range first {
			cb.Append(states[g*na+a].result())
		}
		out.Cols[kw+a] = cb.Vec()
	}
	return out
}
