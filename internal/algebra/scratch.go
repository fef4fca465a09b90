package algebra

import (
	"sync"

	"idivm/internal/rel"
)

// kernelScratch is what a kernel works in and never returns: the digest
// chains and key digests of the hash kernels (γ's, the hash join's and
// semijoin's, and the probe-left semijoin's set of probed keys), γ's row →
// group ids, groups' first rows and aggregate states, the builders of a
// probe join's stored side, the kept rows of ⋉/▷'s filtered side with each
// part's end among them, and a row to evaluate expressions on. A kernel takes one from
// scratchPool for exactly one call and releases it when the call ends, so
// nothing in it may be reachable from the batch the call returns: a buffer
// that becomes an output's Idx (gatherVec shares its selection) is
// allocated per call instead. The pool, not the compiled nodes, holds it:
// plans run on many goroutines at once — serving reads and the Workers of
// a round — and what the pool retains is bounded by that concurrency and
// released by GC, where fields on the nodes would pin each node's largest
// buffers for good.
type kernelScratch struct {
	chains   rel.DigestChains
	dig      []uint64
	gid      []int32
	first    []int32
	states   []aggState
	builders []rel.ColBuilder
	sel      []int32
	ends     []int
	row      rel.Tuple
}

var scratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// scratchReleased (tests only) sees every scratch as it goes back to the
// pool, emptied: a test overwrites it with sentinels, so that a kernel
// reading what it did not write, or a batch holding pooled memory, shows.
var scratchReleased func(*kernelScratch)

func getScratch() *kernelScratch { return scratchPool.Get().(*kernelScratch) }

// release empties the scratch under rel.Reuse's retention rule — a buffer
// above 1 024 entries and over four times what this call used is dropped,
// every other one is zeroed, so the pool keeps no row alive — and returns it
// to the pool. A buffer the call did not use is left as it is.
func (s *kernelScratch) release() {
	s.chains.Reset()
	s.dig, s.gid, s.first, s.states = reuse(s.dig), reuse(s.gid), reuse(s.first), reuse(s.states)
	s.builders, s.row = reuse(s.builders), reuse(s.row)
	s.sel, s.ends = reuse(s.sel), reuse(s.ends)
	if scratchReleased != nil {
		scratchReleased(s)
	}
	scratchPool.Put(s)
}

// reuse is rel.Reuse for a buffer a call filled; an empty one is kept.
func reuse[T any](buf []T) []T {
	if len(buf) == 0 {
		return buf
	}
	return rel.Reuse(buf)
}

// take returns buf resized to n entries, reallocated only when it is too
// small; the entries are whatever the buffer held.
func take[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// keyDigests is the digest (rel.KeyDigest) of every row's idx columns, in
// the scratch's digest buffer: the rows of parts one batch after another.
func (s *kernelScratch) keyDigests(idx []int, parts ...*rel.Batch) []uint64 {
	n := 0
	for _, b := range parts {
		n += b.N
	}
	s.dig = take(s.dig, n)
	off := 0
	for _, b := range parts {
		b.KeyDigestsInto(idx, s.dig[off:off+b.N])
		off += b.N
	}
	if keyMask != ^uint64(0) {
		for i := range s.dig {
			s.dig[i] &= keyMask
		}
	}
	return s.dig
}

// buildHashIdx files every row of parts, numbered one batch after another,
// under the digest of its idx columns, last row first, so each chain lists
// its rows in ascending order.
func (s *kernelScratch) buildHashIdx(idx []int, parts ...*rel.Batch) *rel.DigestChains {
	dig := s.keyDigests(idx, parts...)
	s.chains.Reserve(len(dig))
	for r := len(dig) - 1; r >= 0; r-- {
		s.chains.Push(dig[r], int32(r))
	}
	return &s.chains
}
