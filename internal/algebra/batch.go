// Columnar kernels: what the compiled operators' run bodies (compile.go)
// are built from. They move column vectors (rel.Batch) instead of boxed
// tuples:
//
//   - σ evaluates its predicate row by row on one reused scratch row and
//     narrows the batch with a selection vector — payloads are never
//     copied;
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
//     and carves their aggregate states from one array;
//   - γ and a semijoin's key side read an n-ary union's branches one after
//     another, numbering rows across them, instead of a concatenation.
//
// A kernel allocates the batch it returns and nothing else: chains,
// digests, group ids, states and the like are borrowed for the call from the
// kernel scratch pool (scratch.go).
//
// Predicates, projection items and aggregate arguments are evaluated by
// expr.Compile's closures, the evaluator Eval calls too, so comparison
// semantics (float widening, NULL folding) live in expr and Value.Compare
// only. What the kernels themselves reproduce bit-for-bit is row order,
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
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ---------------------------------------------------------------------------
// σ kernel

// filter narrows a batch by the predicate, returning a gathered view
// (shared payloads, fresh selection vector). When every row passes it
// returns the input batch itself and when none does the operator's empty
// batch; neither case allocates — the selection and the row are built in
// the operator's scratch, and the selection is copied, at its exact size,
// only when it is a proper subset.
func (c *cSelect) filter(b *rel.Batch) *rel.Batch {
	n := b.Len()
	if n == 0 || c.pred == nil {
		return b
	}
	sel := c.sel[:0]
	for i := 0; i < n; i++ {
		c.row = b.Row(i, c.row)
		if c.pred.EvalBool(c.row) {
			sel = append(sel, int32(i))
		}
	}
	c.sel = sel[:0]
	switch len(sel) {
	case n:
		return b
	case 0:
		return c.empty
	}
	return b.GatherRows(append([]int32(nil), sel...))
}

// ---------------------------------------------------------------------------
// Join kernels

// keyMask narrows the key digests the hash kernels file rows under: all ones
// outside tests, which cut it to a few bits so that unequal keys share chains
// and every match is seen to rest on KeyEqual, never on a digest.
var keyMask = ^uint64(0)

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
	s := getScratch()
	defer s.release()
	idx, storedW := c.drive()
	pr := c.pr
	// The match count is unknown until probed (selectivity can be ≪1): the
	// output is sized at the previous run's matches per driving row, or at
	// one per driving row where a probe of the key bounds it at that.
	size := n
	if c.fanout >= 0 {
		size = (c.fanout*n + fanoutUnit - 1) / fanoutUnit
		if pr.plan.unique {
			size = min(size, n)
		}
	}
	s.builders = take(s.builders, storedW)
	stored := s.builders
	clear(stored)
	if c.fanout >= 0 || pr.plan.unique {
		for j := range stored {
			stored[j].Grow(size)
		}
	}
	G := make([]int32, 0, size)
	scratch := s.row
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
	s.row, c.fanout = scratch, (len(G)*fanoutUnit+n-1)/n
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
	s := getScratch()
	defer s.release()
	ht := s.buildHashIdx(c.ridx, right)
	ldig := s.keyDigests(c.lidx, left)
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
// order no selection vector can express, so this strategy stays a row loop
// over the right batches. seen, a digest chain set of the right rows, makes the
// probe keys pairwise distinct under KeyEqual, and that alone keeps every left
// tuple to one emission: KeyEqual is equality of encodings, so no stored value
// equals two distinct keys, and one probe returns each row of its state once
// (TestDistinctProbeKeysReturnDisjointRows, over 2^53 and 2^53+1, ints beside
// floats and NaN, in both states of a written epoch). The Eval oracle still
// keeps its emitted set, which is what that test compares against. The
// emitted tuples come straight from charged lookups and become a batch here;
// out starts at one per probe, the size of a key-to-key match. The set and
// the digests are the kernel's scratch.
func (c *cSemi) probeLeft(t *storage.Handle, right []*rel.Batch) (*rel.Batch, error) {
	s := getScratch()
	defer s.release()
	pr, rdig := c.pr, s.keyDigests(c.ridx, right...)
	out := make([]rel.Tuple, 0, len(rdig))
	seen := &s.chains
	seen.Reserve(len(rdig))
	i := 0
	for _, b := range right {
	next:
		for r := 0; r < b.N; r, i = r+1, i+1 {
			if !pr.fill(b, c.ridx, r) {
				continue
			}
			for e := seen.First(rdig[i]); e >= 0; e = seen.Next(e) {
				if eb, er := at(right, int(e)); keysSameIdx(b, eb, c.ridx, c.ridx, r, er) {
					continue next
				}
			}
			seen.Push(rdig[i], int32(i))
			rows, err := pr.lookup(t)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
	}
	return batchOf(c.empty, out), nil
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

// hashSel is semiHash: digest chains over the right batches, each left row
// tested against its chain.
func (c *cSemi) hashSel(left *rel.Batch, right []*rel.Batch) []int32 {
	s := getScratch()
	defer s.release()
	ht := s.buildHashIdx(c.ridx, right...)
	ldig := s.keyDigests(c.lidx, left)
	n := left.Len()
	sel := make([]int32, 0, n)
	var lbuf, rbuf rel.Tuple
	for i := 0; i < n; i++ {
		matched := false
		for ri := ht.First(ldig[i]); ri >= 0; ri = ht.Next(ri) {
			rb, r := at(right, int(ri))
			if !keysSameIdx(left, rb, c.lidx, c.ridx, i, r) {
				continue
			}
			if c.match == nil {
				matched = true
				break
			}
			lbuf = left.Row(i, lbuf)
			rbuf = rb.Row(r, rbuf)
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
func (c *cSemi) nestedSel(left *rel.Batch, right []*rel.Batch) []int32 {
	var rrows []rel.Tuple
	for _, b := range right {
		rrows = append(rrows, b.Materialize().Tuples...)
	}
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

// fold aggregates the rows of parts, one batch after another, by key, groups
// in first-appearance order, each group's rows in input order (float SUM is
// not associative). One pass numbers the groups: a group is filed under the
// digest of its key and known by its first row, and a row joins the group on
// its digest's chain whose first row is KeyEqual to it on the key columns —
// equal EncodeKey bytes, the oracle's group identity — or founds one. The
// second pass folds each row into its group's states, which are carved from
// one array of exactly groups × aggregates entries. The output's key columns
// are the input's, gathered at the groups' first rows when those all lie in
// the first batch, else copied from them. The digests, the chains, the group
// ids and the states are scratch; first becomes the gathered columns' Idx.
func (c *cGroupBy) fold(parts []*rel.Batch) *rel.Batch {
	kw, na := len(c.keyIdx), len(c.fns)
	s := getScratch()
	defer s.release()
	dig := s.keyDigests(c.keyIdx, parts...)
	n := len(dig)
	ht := &s.chains
	ht.Reserve(n)
	s.gid = take(s.gid, n)
	gid := s.gid                            // row → group
	first := make([]int32, 0, min(n, 1024)) // group → its first row
	i := 0
	for _, b := range parts {
		for r := 0; r < b.N; r, i = r+1, i+1 {
			g := ht.First(dig[i])
			for ; g >= 0; g = ht.Next(g) {
				if hb, hr := at(parts, int(first[g])); keysSameIdx(b, hb, c.keyIdx, c.keyIdx, r, hr) {
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
	}

	s.states = take(s.states, len(first)*na)
	states := s.states
	clear(states)
	scratch := s.row
	i = 0
	for _, b := range parts {
		for r := 0; r < b.N; r, i = r+1, i+1 {
			st := states[int(gid[i])*na:]
			for a, fn := range c.fns {
				switch j := c.argIdx[a]; {
				case j == argStar:
					st[a].add(fn, rel.Null(), true)
				case j >= 0:
					st[a].add(fn, b.Cols[j].Value(r), false)
				default:
					scratch = b.Row(r, scratch)
					st[a].add(fn, c.args[a].Eval(scratch), false)
				}
			}
		}
	}
	s.row = scratch

	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, kw+na), N: len(first)}
	if int(first[len(first)-1]) < parts[0].N { // first ascends: every group starts in the first batch
		heads := parts[0].GatherRows(first)
		for k, x := range c.keyIdx {
			out.Cols[k] = heads.Cols[x]
		}
	} else {
		for k, x := range c.keyIdx {
			var cb rel.ColBuilder
			cb.Grow(len(first))
			for _, f := range first {
				hb, hr := at(parts, int(f))
				cb.Append(hb.Cols[x].Value(hr))
			}
			out.Cols[k] = cb.Vec()
		}
	}
	for a := 0; a < na; a++ {
		var cb rel.ColBuilder
		cb.Grow(len(first))
		for g := range first {
			cb.Append(states[g*na+a].result(c.fns[a]))
		}
		out.Cols[kw+a] = cb.Vec()
	}
	return out
}
