// Column-major batches: the vectorized execution layout of the compiled
// kernels. A Batch holds one column vector per schema attribute, and a
// column stores its Values field by field: uniform columns keep one
// unboxed payload (the 64-bit words of bools, ints or floats, or the
// strings) and mark NULLs in a per-row kind slice; mixed-kind columns keep
// the per-row kinds and whichever payloads their rows use. Columns may
// additionally carry a selection/gather indirection (Idx), so filters and
// joins narrow or reorder a batch without copying any payloads.
//
// Batches exist strictly between charged boundaries: rows enter columnar
// form right after a Handle-charged Scan/Lookup and leave it
// (Materialize) only where results must become tuples again — for a plan's
// caller, or a reader of a view's applied i-diffs. Between the steps of a
// Δ-script a result stays a batch (Binding), and the APPLY statements read
// it as one: a stored row is built straight from the columns. The
// converters therefore never touch storage themselves and charge nothing;
// batching is invisible to the Section-6 cost model (DESIGN.md §8), and
// the ivmlint chargepath analyzer pins the converters to the kernel layer.
//
// A batch is immutable once built: kernels derive new batches (sharing
// payloads) and never write into one they were handed, so one zero-row
// batch per operator can be shared by every run that comes up empty.
package rel

import "sync/atomic"

// VecKind identifies the payload layout of a column vector. The zero
// value is VecNull — a column of NULLs with no payload — so a zero ColVec
// is valid for any row count. The layouts of one value kind share that
// Kind's number (VecInt is KindInt), which valueKind relies on.
type VecKind uint8

// The column layouts.
const (
	VecNull  VecKind = iota // every value NULL; no payload
	VecBool                 // Nums: 0 or 1
	VecInt                  // Nums: the int64s
	VecFloat                // Nums: the float64 bits
	VecStr                  // Strs
	VecAny                  // mixed kinds: Kinds set, Nums and Strs where rows need them
)

// ColVec is one column of a Batch: a Value's fields, one slice each. A
// bool, int or float column keeps its payload in Nums (math.Float64frombits
// reads a float) and a string column in Strs. Kinds, when non-nil, is the
// kind of every physical row — KindNull marks a NULL of a typed column —
// and is always set on a VecAny column, whose Nums and Strs are each nil
// (every row's word, or string, is zero) or as long as Kinds. VecNull
// needs no payload at all. Idx, when non-nil, maps logical row i to
// physical payload position Idx[i]: a filtered or join-gathered column
// aliases its source payload and only materializes the indirection vector.
type ColVec struct {
	Kind  VecKind
	Nums  []uint64
	Strs  []string
	Kinds []Kind
	Idx   []int32
}

// valueKind is the Kind of every non-NULL value of a uniform layout.
func (k VecKind) valueKind() Kind { return Kind(k) }

// Phys maps a logical row to its physical payload position, resolving the
// Idx indirection. Typed kernel loops use it to read payload slices
// directly without boxing.
func (c *ColVec) Phys(i int) int {
	if c.Idx != nil {
		return int(c.Idx[i])
	}
	return i
}

// Value boxes the logical row i of the column.
func (c *ColVec) Value(i int) Value {
	if c.Kind == VecNull {
		return Value{}
	}
	p := c.Phys(i)
	v := Value{Kind: c.Kind.valueKind()}
	if c.Kinds != nil {
		v.Kind = c.Kinds[p]
	}
	if c.Nums != nil {
		v.n = c.Nums[p]
	}
	if c.Strs != nil {
		v.s = c.Strs[p]
	}
	return v
}

// IsNull reports whether the logical row i is NULL.
func (c *ColVec) IsNull(i int) bool {
	if c.Kind == VecNull {
		return true
	}
	return c.Kinds != nil && c.Kinds[c.Phys(i)] == KindNull
}

// physLen is the number of physical payload positions of a column that has
// a payload.
func (c *ColVec) physLen() int {
	switch {
	case c.Kinds != nil:
		return len(c.Kinds)
	case c.Kind == VecStr:
		return len(c.Strs)
	}
	return len(c.Nums)
}

// Constant is a value as a column: Col(n) is n rows that all hold it, its
// one-value payload, built once, read through a shared all-zero Idx. Making
// such a column allocates nothing, and neither does gathering it.
type Constant struct{ one ColVec }

// NewConstant returns v as a constant column.
func NewConstant(v Value) Constant {
	var cb ColBuilder
	cb.Append(v)
	return Constant{one: cb.Vec()}
}

// Col returns the column of n rows holding the constant.
func (k Constant) Col(n int) ColVec {
	c := k.one
	if c.Kind != VecNull {
		c.Idx = zeros(n)
	}
	return c
}

// zeroIdx backs the Idx of constant columns: all zero and never written (no
// code writes an Idx), so every column of every goroutine may share it. A
// column longer than it replaces it with one at least twice as long, up to
// maxZeroIdx entries; a longer column's Idx is its own.
var zeroIdx atomic.Pointer[[]int32]

// maxZeroIdx bounds what zeroIdx keeps alive: 32 KiB, far above a round's
// diffs, where a recompute's batch is large enough to pay for its own Idx.
const maxZeroIdx = 1 << 13

// zeros returns n zero indices.
func zeros(n int) []int32 {
	if n > maxZeroIdx {
		return make([]int32, n)
	}
	z := zeroIdx.Load()
	if z == nil || len(*z) < n {
		size := 1024
		if z != nil {
			size = min(2*len(*z), maxZeroIdx)
		}
		grown := make([]int32, max(n, size))
		zeroIdx.Store(&grown)
		z = &grown
	}
	return (*z)[:n:n]
}

// gatherVec derives the column selecting logical rows sel, composing any
// existing indirection. memo shares composed vectors between columns that
// alias one Idx slice (joined sides share a single gather vector). An
// indirect column with one payload position — a constant — reads that
// position on every row it selects too, through zeros.
func (c ColVec) gatherVec(sel []int32, memo *gatherMemo) ColVec {
	out := c
	if c.Kind == VecNull {
		out.Idx = nil
		return out
	}
	if c.Idx == nil || len(c.Idx) == 0 {
		out.Idx = sel
		return out
	}
	if c.physLen() == 1 {
		out.Idx = zeros(len(sel))
		return out
	}
	key := &c.Idx[0]
	if composed := memo.get(key); composed != nil {
		out.Idx = composed
		return out
	}
	composed := make([]int32, len(sel))
	for k, s := range sel {
		composed[k] = c.Idx[s]
	}
	memo.put(key, composed)
	out.Idx = composed
	return out
}

// gatherMemo is GatherRows' memo of the vectors it composed, by the first
// element of the Idx slice they were composed from. It lives on the caller's
// stack: a batch's columns alias few gather vectors (a join's output two, one
// per side), and a source past the last slot is composed anew.
type gatherMemo struct {
	n    int
	keys [4]*int32
	vecs [4][]int32
}

func (m *gatherMemo) get(key *int32) []int32 {
	for i, k := range m.keys[:m.n] {
		if k == key {
			return m.vecs[i]
		}
	}
	return nil
}

func (m *gatherMemo) put(key *int32, vec []int32) {
	if m.n < len(m.keys) {
		m.keys[m.n], m.vecs[m.n] = key, vec
		m.n++
	}
}

// Batch is a column-major relation fragment: N logical rows over one
// ColVec per schema attribute.
type Batch struct {
	Schema Schema
	Cols   []ColVec
	N      int
}

// nullCols backs the columns of zero-row batches. A zero ColVec is a valid
// column of any length and a batch is never written to once built, so all
// empty batches of up to len(nullCols) attributes share these.
var nullCols [64]ColVec

// NewBatch returns an empty (zero-row) batch with one VecNull column per
// attribute — safe to gather, Materialize or read at any width.
func NewBatch(sch Schema) *Batch {
	w := len(sch.Attrs)
	if w > len(nullCols) {
		return &Batch{Schema: sch, Cols: make([]ColVec, w)}
	}
	return &Batch{Schema: sch, Cols: nullCols[:w:w]}
}

// Len returns the logical row count.
func (b *Batch) Len() int { return b.N }

// Row boxes logical row i into buf (grown as needed), returning the
// scratch tuple. The result aliases buf and is only valid until the next
// call — it exists for residual predicates and generic expressions that
// need a row view inside a batch kernel.
func (b *Batch) Row(i int, buf Tuple) Tuple {
	if cap(buf) < len(b.Cols) {
		buf = make(Tuple, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for j := range b.Cols {
		buf[j] = b.Cols[j].Value(i)
	}
	return buf
}

// KeyDigestsInto returns the key digest of every row over the columns cols
// in buf, which it reallocates only when buf is too small: out[i] is
// KeyDigest of row i's cols values, folded a column at a time so that the
// kind switch runs once per column, not once per value, and a dense int
// column is read as the []int64 it is. It returns buf[:b.N].
func (b *Batch) KeyDigestsInto(cols []int, buf []uint64) []uint64 {
	out := buf
	if cap(out) < b.N {
		out = make([]uint64, b.N)
	}
	out = out[:b.N]
	for i := range out {
		out[i] = digestSeed
	}
	for _, j := range cols {
		c := &b.Cols[j]
		if c.Kind == VecInt && c.Kinds == nil {
			for i := range out {
				out[i] = mix(out[i], c.Nums[c.Phys(i)])
			}
			continue
		}
		for i := range out {
			out[i] = c.Value(i).keyDigest(out[i])
		}
	}
	if digestMask != ^uint64(0) {
		for i := range out {
			out[i] &= digestMask
		}
	}
	return out
}

// GatherRows returns the batch's logical rows in sel, which may repeat or
// reorder rows (a join emits one driving row per match). Payloads are
// shared; only indirection vectors are built.
func (b *Batch) GatherRows(sel []int32) *Batch {
	nb := &Batch{Schema: b.Schema, Cols: make([]ColVec, len(b.Cols)), N: len(sel)}
	var memo gatherMemo
	for i := range b.Cols {
		nb.Cols[i] = b.Cols[i].gatherVec(sel, &memo)
	}
	return nb
}

// Slice returns logical rows [lo, hi) of the batch, sharing its payloads; the
// whole range is the batch itself.
func (b *Batch) Slice(lo, hi int) *Batch {
	if lo == 0 && hi == b.N {
		return b
	}
	nb := &Batch{Schema: b.Schema, Cols: make([]ColVec, len(b.Cols)), N: hi - lo}
	for j, c := range b.Cols {
		switch {
		case c.Kind == VecNull:
		case c.Idx != nil:
			c.Idx = c.Idx[lo:hi]
		default:
			c.Nums, c.Strs, c.Kinds = window(c.Nums, lo, hi), window(c.Strs, lo, hi), window(c.Kinds, lo, hi)
		}
		nb.Cols[j] = c
	}
	return nb
}

// window is s[lo:hi], or nil for a payload the column does not have.
func window[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// vecKindOf maps a value kind to the column layout that stores it.
func vecKindOf(k Kind) VecKind {
	if k > KindString {
		return VecNull
	}
	return VecKind(k)
}

// ColBuilder accumulates one output column, keeping the payload unboxed
// while every appended value shares one kind and degrading to a mixed
// column on the first mismatch. The zero value is ready to use.
type ColBuilder struct {
	kind  VecKind // VecNull until the first non-null value fixes it
	nums  []uint64
	strs  []string
	kinds []Kind // lazily allocated on the first NULL of a typed column, or on degrading
	n     int
	hint  int // expected total length; sizes the payload allocations
}

// Len returns the number of values appended so far.
func (cb *ColBuilder) Len() int { return cb.n }

// Grow hints the expected final length so the payload slices allocate
// once instead of doubling; appends past the hint stay correct.
func (cb *ColBuilder) Grow(n int) {
	if n > cb.hint {
		cb.hint = n
	}
}

// capFor returns the capacity to allocate for a payload that must hold at
// least n values now.
func (cb *ColBuilder) capFor(n int) int {
	if cb.hint > n {
		return cb.hint
	}
	return n
}

// ensureKinds backfills the per-row kinds of a typed column that just met
// its first NULL (or is degrading): every row so far has the column's kind.
func (cb *ColBuilder) ensureKinds() {
	if cb.kinds != nil {
		return
	}
	cb.kinds = make([]Kind, cb.n, cb.capFor(cb.n+1))
	k := cb.kind.valueKind()
	for i := range cb.kinds {
		cb.kinds[i] = k
	}
}

// setKind turns an all-NULL column into a typed one, backfilling zero
// payloads marked NULL.
func (cb *ColBuilder) setKind(k VecKind) {
	cb.kind = k
	c := cb.capFor(cb.n)
	if cb.n > 0 {
		cb.kinds = make([]Kind, cb.n, c) // all KindNull
	} else if c == 0 {
		return // no backfill, no hint: let append allocate
	}
	if k == VecStr {
		cb.strs = make([]string, cb.n, c)
	} else {
		cb.nums = make([]uint64, cb.n, c)
	}
}

// degrade turns a typed column into a mixed one (first kind mismatch):
// the payload it has stays, and the per-row kinds say how to read it.
func (cb *ColBuilder) degrade() {
	cb.ensureKinds()
	cb.kind = VecAny
}

// Append adds one value to the column.
func (cb *ColBuilder) Append(v Value) {
	k := vecKindOf(v.Kind)
	switch {
	case cb.kind == VecNull:
		if k == VecNull {
			cb.n++
			return
		}
		cb.setKind(k)
	case k != cb.kind && k != VecNull && cb.kind != VecAny:
		cb.degrade()
	}
	if cb.kinds != nil || k == VecNull {
		cb.ensureKinds()
		cb.kinds = append(cb.kinds, v.Kind)
	}
	switch cb.kind {
	case VecStr:
		cb.strs = append(cb.strs, v.s)
	case VecAny:
		// A mixed column allocates a payload the first time a row needs it.
		if cb.nums == nil && v.n != 0 {
			cb.nums = make([]uint64, cb.n, cb.capFor(cb.n+1))
		}
		if cb.strs == nil && v.s != "" {
			cb.strs = make([]string, cb.n, cb.capFor(cb.n+1))
		}
		if cb.nums != nil {
			cb.nums = append(cb.nums, v.n)
		}
		if cb.strs != nil {
			cb.strs = append(cb.strs, v.s)
		}
	default:
		cb.nums = append(cb.nums, v.n)
	}
	cb.n++
}

// AppendVec bulk-appends the first n logical rows of a column vector.
// Dense typed sources append by slice copy when the kinds line up; any
// other shape falls back to per-value Append (which keeps degradation
// semantics). It is the deterministic merge step of chunked batch
// kernels: per-chunk builders concatenate in chunk order.
func (cb *ColBuilder) AppendVec(c *ColVec, n int) {
	if n == 0 {
		return
	}
	if c.Idx != nil || c.Kind == VecNull || c.Kind == VecAny || (cb.kind != c.Kind && cb.kind != VecNull) {
		for i := 0; i < n; i++ {
			cb.Append(c.Value(i))
		}
		return
	}
	if cb.kind == VecNull {
		cb.setKind(c.Kind)
	}
	if c.Kind == VecStr {
		cb.strs = append(cb.strs, c.Strs[:n]...)
	} else {
		cb.nums = append(cb.nums, c.Nums[:n]...)
	}
	switch {
	case c.Kinds != nil:
		cb.ensureKinds()
		cb.kinds = append(cb.kinds, c.Kinds[:n]...)
	case cb.kinds != nil:
		k := cb.kind.valueKind()
		for i := 0; i < n; i++ {
			cb.kinds = append(cb.kinds, k)
		}
	}
	cb.n += n
}

// Vec finalizes the column. The builder must not be appended to after.
func (cb *ColBuilder) Vec() ColVec {
	return ColVec{Kind: cb.kind, Nums: cb.nums, Strs: cb.strs, Kinds: cb.kinds}
}

// FromTuples converts a row-major tuple slice into a batch. It is a
// charged-boundary converter: callers invoke it exactly once on rows that
// a *storage.Handle just charged for (or on an already-bound derived
// relation), never inside an operator loop.
func FromTuples(sch Schema, rows []Tuple) *Batch {
	if len(rows) == 0 {
		return NewBatch(sch)
	}
	b := &Batch{Schema: sch, Cols: make([]ColVec, len(sch.Attrs)), N: len(rows)}
	// Column-major fill: one builder at a time keeps its kind switch
	// predicted and its payload slice hot instead of cycling through all
	// the builders per row.
	for j := range b.Cols {
		var cb ColBuilder
		cb.Grow(len(rows))
		for _, t := range rows {
			cb.Append(t[j])
		}
		b.Cols[j] = cb.Vec()
	}
	return b
}

// FromRelation converts an in-memory relation into a batch.
func FromRelation(r *Relation) *Batch {
	return FromTuples(r.Schema, r.Tuples)
}

// materializeChunk is the arena size, in rows, of Materialize: 64 and 1024
// measured the same on every benchmark workload (DESIGN.md §8).
const materializeChunk = 1024

// Materialize converts the batch back into a row-major relation, the
// inverse charged-boundary converter: it runs only where batch results
// leave the kernel layer as tuples (a plan's output for its caller, an
// applied i-diff a reader asks tuples of). Tuples are laid out in arena chunks of materializeChunk
// rows instead of one allocation per tuple; values are written by
// per-column typed loops.
func (b *Batch) Materialize() *Relation {
	out := NewRelation(b.Schema)
	n, w := b.N, len(b.Cols)
	if n == 0 {
		return out
	}
	out.Tuples = make([]Tuple, n)
	for lo := 0; lo < n; lo += materializeChunk {
		hi := lo + materializeChunk
		if hi > n {
			hi = n
		}
		buf := make([]Value, (hi-lo)*w)
		for r := lo; r < hi; r++ {
			out.Tuples[r] = buf[:w:w]
			buf = buf[w:]
		}
		for j := range b.Cols {
			fillColumn(&b.Cols[j], out.Tuples[lo:hi], lo, j)
		}
	}
	return out
}

// fillColumn writes one column's values for logical rows [base,
// base+len(rows)) into position j of each tuple.
func fillColumn(c *ColVec, rows []Tuple, base, j int) {
	if c.Kind == VecNull {
		return // zero Value is NULL
	}
	if c.Kinds != nil || c.Idx != nil {
		for r := range rows {
			rows[r][j] = c.Value(base + r)
		}
		return
	}
	// A dense column without NULLs: one kind, one payload, no lookups.
	k := c.Kind.valueKind()
	if c.Kind == VecStr {
		for r, s := range c.Strs[base : base+len(rows)] {
			rows[r][j] = Value{Kind: k, s: s}
		}
		return
	}
	for r, x := range c.Nums[base : base+len(rows)] {
		rows[r][j] = Value{Kind: k, n: x}
	}
}
