package rel

import "math/bits"

// digestTable maps a key digest to the head of its chain (hashIndex): one
// flat open-addressed table that uses the digest itself as the hash. A digest
// comes out of mix, so its high bits already depend on every bit of the key:
// the home cell of d among c cells is the high word of d·c (bits.Mul64), for
// any c, so the table grows by half instead of doubling. Collisions probe
// linearly and a deletion shifts the rest of the cluster back — no tombstones,
// so a table under churn probes like one freshly built. Lookups return the
// cell, not the value: "find the key, else link the new entry", "read the
// head, else set it" and "drop the chain" are one probe each.
type digestTable struct {
	cells []dcell
	n     int // occupied cells; (n+1)·4 ≤ len(cells)·3 after every insert
}

// dcell is 16 bytes with padding: a probe that ends in its home cell — most
// do at ≤ ¾ load — touches one cache line.
type dcell struct {
	digest uint64
	head   int32 // first entry of digest's chain; < 0: the cell is empty
}

// homeMask is all ones outside tests, which narrow it (export_test.go) so
// that distinct digests share a home and every operation runs in a cluster.
var homeMask = ^uint64(0)

func (t *digestTable) home(d uint64) int {
	hi, _ := bits.Mul64(d&homeMask, uint64(len(t.cells)))
	return int(hi)
}

// find returns the cell holding digest d, or -1.
func (t *digestTable) find(d uint64) int {
	if t.n == 0 {
		return -1
	}
	if i := t.probe(d); t.cells[i].head >= 0 {
		return i
	}
	return -1
}

// probe walks to the cell holding d or the empty cell that ends d's probe
// sequence; the table has cells and — load ≤ ¾ — an empty one among them.
func (t *digestTable) probe(d uint64) int {
	for i := t.home(d); ; {
		if c := &t.cells[i]; c.head < 0 || c.digest == d {
			return i
		}
		if i++; i == len(t.cells) {
			i = 0
		}
	}
}

// cell returns the cell holding digest d or, having made room for one more
// digest, the empty cell d belongs in: the caller fills it and counts it in n.
func (t *digestTable) cell(d uint64) int {
	if (t.n+1)*4 > len(t.cells)*3 {
		t.resize(max(8, len(t.cells)+len(t.cells)/2))
	}
	return t.probe(d)
}

// del empties cell i and closes the gap: each later cell of the cluster moves
// back into the hole unless its home lies (cyclically) after the hole, at or
// before the cell — moved, it would sit ahead of its home, where no probe looks.
func (t *digestTable) del(i int) {
	t.n--
	for j := i; ; {
		if j++; j == len(t.cells) {
			j = 0
		}
		c := t.cells[j]
		if c.head < 0 {
			break
		}
		if h := t.home(c.digest); (i < j && i < h && h <= j) || (j < i && (i < h || h <= j)) {
			continue
		}
		t.cells[i], i = c, j
	}
	t.cells[i].head = -1
}

// resize rehashes into a table of c cells, which must keep the load ≤ ¾.
func (t *digestTable) resize(c int) {
	old := t.cells
	t.cells = make([]dcell, c)
	for i := range t.cells {
		t.cells[i].head = -1
	}
	for _, s := range old {
		if s.head >= 0 {
			t.cells[t.probe(s.digest)] = s
		}
	}
}

// fit trims the table after a bulk build: an index nobody inserts into again
// then sits at ¾ load.
func (t *digestTable) fit() {
	if c := (t.n+1)*4/3 + 1; c < len(t.cells) {
		t.resize(c)
	}
}

// DigestChains is the digest table outside a stored index: it files entries
// — small non-negative numbers a kernel assigns, the row numbers of a batch or
// the ordinals of the groups or set members it has seen so far — under 64-bit
// key digests (KeyDigest, Batch.KeyDigestsInto), each digest's entries on a chain
// threaded through one []int32, newest first. It stores no keys and decides
// nothing: a caller walks the chain under a probe's digest and verifies every
// entry against the probe with Value.KeyEqual, so keys that share a digest
// merely share a chain. The zero value is ready to use.
type DigestChains struct {
	tab      digestTable
	next     []int32 // entry → the entry pushed before it under the same digest, or -1
	reserved int     // the largest Reserve since the last Reset
}

// cellsFor is the table size that holds n digests at ¾ load.
func cellsFor(n int) int { return (n+1)*4/3 + 1 }

// Reserve sizes the table for n entries up front, so a build of known size
// never rehashes.
func (c *DigestChains) Reserve(n int) {
	c.reserved = max(c.reserved, n)
	if cells := cellsFor(n); cells > len(c.tab.cells) {
		c.tab.resize(cells)
	}
	if n > cap(c.next) {
		c.next = append(make([]int32, 0, n), c.next...)
	}
}

// Reset empties the chains for their next use. Their storage is kept within
// Reuse's retention bound of what this use reserved or filed, so a reset
// clears O(max(retainFloor, that)) cells and one large use does not pin a
// large table for good. Chains nothing was reserved in or filed under since
// the last Reset are left as they are.
func (c *DigestChains) Reset() {
	used := max(c.reserved, len(c.next))
	if used == 0 {
		return
	}
	c.reserved = 0
	if !retains(len(c.tab.cells), cellsFor(used)) {
		c.tab = digestTable{}
	} else if c.tab.n > 0 {
		for i := range c.tab.cells {
			c.tab.cells[i].head = -1
		}
		c.tab.n = 0
	}
	if !retains(cap(c.next), used) {
		c.next = nil
	}
	c.next = c.next[:0]
}

// First returns the newest entry filed under d, or -1.
func (c *DigestChains) First(d uint64) int32 {
	if i := c.tab.find(d); i >= 0 {
		return c.tab.cells[i].head
	}
	return -1
}

// Next returns the entry filed under e's digest just before e, or -1.
func (c *DigestChains) Next(e int32) int32 { return c.next[e] }

// Push files entry e, which must not be filed already, under d, ahead of the
// digest's other entries: pushing the rows of a build side last to first
// leaves every chain in ascending row order.
func (c *DigestChains) Push(d uint64, e int32) {
	for int(e) >= len(c.next) {
		c.next = append(c.next, -1)
	}
	i := c.tab.cell(d)
	cell := &c.tab.cells[i]
	if cell.head < 0 {
		cell.digest, cell.head = d, -1
		c.tab.n++
	}
	c.next[e], cell.head = cell.head, e
}

// retainFloor and retainRatio bound what an emptied buffer keeps (see Reuse).
const (
	retainFloor = 1 << 10
	retainRatio = 4
)

// retains reports whether a buffer of capacity entries is kept after a use of
// used entries: it is at most retainFloor entries, or at most retainRatio
// times the use.
func retains(capacity, used int) bool { return capacity <= max(retainFloor, retainRatio*used) }

// Reuse empties a buffer that a round or a call filled — a modification log,
// the compactor's slots and net changes in internal/ivm, a compiled kernel's
// scratch in internal/algebra — for its next use. It zeroes the entries, so
// the buffer keeps no row alive, and keeps the backing array unless it is
// above retainFloor entries and more than retainRatio times what the use
// filled: one large use does not pin its buffer for good.
func Reuse[T any](buf []T) []T {
	if !retains(cap(buf), len(buf)) {
		return nil
	}
	clear(buf)
	return buf[:0]
}
