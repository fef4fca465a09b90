// Columnar kernels: what the compiled operators' run bodies (compile.go)
// are built from. They move column vectors (rel.Batch) instead of boxed
// tuples:
//
//   - σ evaluates its predicate row by row on a scratch row of the columns
//     it reads and narrows each batch with a selection vector — payloads
//     are never copied;
//   - equi-joins and semijoins over derived inputs, γ and the two sets of
//     semiProbeLeft file rows under the 64-bit key digest the stored indexes
//     use (rel.KeyDigest, computed a column at a time by Batch.KeyDigestsInto)
//     in a flat digest → chain table (rel.DigestChains): no key is encoded,
//     no string or bucket is allocated per row, and every candidate on a
//     chain is verified column-wise with KeyEqual; joins emit gather-vector
//     pairs, so both sides stay zero-copy; stored-side probe joins fill the
//     probe buffer from columns and append only the probed tuples' values;
//   - γ numbers its groups in first-appearance order, knows each by its
//     first row (the output's key columns are the input's, gathered there)
//     and carves their aggregate states from one array;
//   - γ, σ and both sides of a semijoin read a sequence of batches — an
//     n-ary union's branches, or what σ, ⋉/▷ and π made of them — one after
//     another, numbering rows across them where they hash, instead of a
//     concatenation; σ and ⋉/▷ narrow each batch where it lies.
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
	"slices"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ---------------------------------------------------------------------------
// σ kernel

// filter appends to dst each part narrowed by the predicate (keepParts),
// which reads a row of the columns it names. The selection is built in the
// operator's scratch and copied only when some part keeps a proper subset.
func (c *cSelect) filter(dst, parts []*rel.Batch) []*rel.Batch {
	sel, ends := selection(c.sel, c.ends, parts)
	for _, b := range parts {
		for i := 0; i < b.N; i++ {
			c.row = c.refs.row(b, i, c.row)
			if c.pred.EvalBool(c.row) {
				sel = append(sel, int32(i))
			}
		}
		ends = append(ends, len(sel))
	}
	c.sel, c.ends = sel[:0], ends[:0]
	return keepParts(dst, parts, sel, ends)
}

// selection returns sel and ends emptied, with room for a row of every part
// and the end of every part: a selection kernel's buffers, reallocated at
// once to their largest size when they are short.
func selection(sel []int32, ends []int, parts []*rel.Batch) ([]int32, []int) {
	n := 0
	for _, b := range parts {
		n += b.N
	}
	if cap(sel) < n {
		sel = make([]int32, 0, n)
	}
	if cap(ends) < len(parts) {
		ends = make([]int, 0, len(parts))
	}
	return sel[:0], ends[:0]
}

// keepParts appends to dst each part narrowed to its kept rows, numbered
// within it: part p's are sel[ends[p-1]:ends[p]]. A part kept whole is
// appended as it is and one that keeps nothing is dropped; every other one
// gathers its own sub-slice of one copy of sel, made at the first of them —
// payloads are never copied. sel and ends are scratch. dst may be parts[:0]
// or end where parts begins: no part is written before it is read.
func keepParts(dst, parts []*rel.Batch, sel []int32, ends []int) []*rel.Batch {
	var own []int32 // sel[base:], copied
	lo, base := 0, 0
	for p, b := range parts {
		hi := ends[p]
		switch k := hi - lo; {
		case k == b.N:
			dst = append(dst, b)
		case k > 0:
			if own == nil {
				own, base = slices.Clone(sel[lo:]), lo
			}
			dst = append(dst, b.GatherRows(own[lo-base:hi-base:hi-base]))
		}
		lo = hi
	}
	return dst
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

// The three selection kernels below write the kept rows of each left part,
// numbered within it, to s.sel, and where each part's end there to s.ends:
// what keepParts narrows the parts by.

// probeRightSel is semiProbeRight: keep/drop per left row by probing the
// stored right — the Handle calls of Eval's loop, part after part.
func (c *cSemi) probeRightSel(s *kernelScratch, t *storage.Handle, left []*rel.Batch) error {
	pr := c.pr
	sel, ends := selection(s.sel, s.ends, left)
	scratch := s.row
	for _, b := range left {
		for i := 0; i < b.N; i++ {
			matched := false
			if pr.fill(b, c.lidx, i) {
				rows, err := pr.lookup(t)
				if err != nil {
					return err
				}
				if c.match == nil {
					matched = len(rows) > 0
				} else {
					scratch = b.Row(i, scratch)
					matched = c.anyMatch(scratch, rows)
				}
			}
			if matched == c.keep {
				sel = append(sel, int32(i))
			}
		}
		ends = append(ends, len(sel))
	}
	s.sel, s.ends, s.row = sel, ends, scratch
	return nil
}

// hashSel is semiHash: digest chains over the right batches, each left row
// tested against its chain.
func (c *cSemi) hashSel(s *kernelScratch, left, right []*rel.Batch) {
	ht := s.buildHashIdx(c.ridx, right...)
	ldig := s.keyDigests(c.lidx, left...)
	sel, ends := selection(s.sel, s.ends, left)
	var lbuf, rbuf rel.Tuple
	i := 0
	for _, lb := range left {
		for l := 0; l < lb.N; l, i = l+1, i+1 {
			matched := false
			for ri := ht.First(ldig[i]); ri >= 0; ri = ht.Next(ri) {
				rb, r := at(right, int(ri))
				if !keysSameIdx(lb, rb, c.lidx, c.ridx, l, r) {
					continue
				}
				if c.match == nil {
					matched = true
					break
				}
				lbuf = lb.Row(l, lbuf)
				rbuf = rb.Row(r, rbuf)
				if c.match.EvalBool(lbuf, rbuf) {
					matched = true
					break
				}
			}
			if matched == c.keep {
				sel = append(sel, int32(l))
			}
		}
		ends = append(ends, len(sel))
	}
	s.sel, s.ends = sel, ends
}

// nestedSel is semiNested, the θ-semijoin: like nestedJoin, a row loop
// over the boxed inner side.
func (c *cSemi) nestedSel(s *kernelScratch, left, right []*rel.Batch) {
	var rrows []rel.Tuple
	for _, b := range right {
		rrows = append(rrows, b.Materialize().Tuples...)
	}
	sel, ends := selection(s.sel, s.ends, left)
	var lbuf rel.Tuple
	for _, lb := range left {
		for i := 0; i < lb.N; i++ {
			lbuf = lb.Row(i, lbuf)
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
		ends = append(ends, len(sel))
	}
	s.sel, s.ends = sel, ends
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
// the first batch (its key columns alone), else copied from them. The
// digests, the chains, the group ids, the first rows and the states are
// scratch; a copy of the first rows becomes the gathered columns' Idx.
func (c *cGroupBy) fold(parts []*rel.Batch) *rel.Batch {
	kw, na := len(c.keyIdx), len(c.fns)
	s := getScratch()
	defer s.release()
	dig := s.keyDigests(c.keyIdx, parts...)
	n := len(dig)
	ht := &s.chains
	ht.Reserve(n)
	s.gid = take(s.gid, n)
	gid := s.gid         // row → group
	first := s.first[:0] // group → its first row
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
	s.row, s.first = scratch, first

	out := &rel.Batch{Schema: c.empty.Schema, Cols: make([]rel.ColVec, kw+na), N: len(first)}
	if int(first[len(first)-1]) < parts[0].N { // first ascends: every group starts in the first batch
		keys := rel.Batch{Cols: out.Cols[:kw], N: parts[0].N} // its key columns alone
		for k, x := range c.keyIdx {
			keys.Cols[k] = parts[0].Cols[x]
		}
		copy(out.Cols, keys.GatherRows(slices.Clone(first)).Cols)
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
