package main

// Seeded input generators. --seed is the only source of randomness: the
// data sets are fixed (the builders' own default seeds), and each
// workload's modification stream and read-key stream are separate
// rand.Rand sequences derived from the seed, so how often a run reads
// never changes what it writes.
//
// The streams are stratified so the count metrics depend on the seed as
// little as possible: update workloads walk fresh random permutations of
// the key space (every key is modified equally often over a cycle), and
// the feed draws each round's authors one per quantile of the Zipf
// distribution.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"idivm/internal/db"
	"idivm/internal/rel"
)

// mod is one base-table modification, fully prepared before the timed
// window it runs in.
type mod struct {
	kind  db.ModKind
	table string
	row   rel.Tuple   // insert
	key   []rel.Value // update, delete
	attrs []string    // update
	vals  []rel.Value // update
}

// read is one keyed read of a view: the SQL a user would send plus the
// pieces needed to check its answer against the view filtered by hand.
type read struct {
	sql  string
	view string
	col  string
	val  rel.Value
	cols []string
}

// modGen yields the modifications of successive rounds.
type modGen interface {
	next() []mod
}

func streamRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// permCycle walks fresh random permutations of 0..n-1, m keys at a time.
// The set-ups choose m dividing n, so a take never straddles two
// permutations and its keys are distinct.
type permCycle struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newPermCycle(rng *rand.Rand, n int) *permCycle {
	return &permCycle{rng: rng, perm: rng.Perm(n)}
}

func (p *permCycle) take(m int) []int {
	if p.pos == len(p.perm) {
		p.rng.Shuffle(len(p.perm), func(i, j int) { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] })
		p.pos = 0
	}
	out := p.perm[p.pos : p.pos+m]
	p.pos += m
	return out
}

// updateGen is a stream of key updates: each round M distinct keys of one
// table get new values for attrs. cur is the generator's copy of the
// column the new value must differ from, so every update changes its row.
type updateGen struct {
	rng   *rand.Rand
	cycle *permCycle
	table string
	attrs []string
	cur   []int64
	m     int
	// draw returns the key's new cur and the update's values.
	draw func(rng *rand.Rand, cur int64) (int64, []rel.Value)
}

func (g *updateGen) next() []mod {
	out := make([]mod, 0, g.m)
	for _, k := range g.cycle.take(g.m) {
		var vals []rel.Value
		g.cur[k], vals = g.draw(g.rng, g.cur[k])
		out = append(out, mod{kind: db.ModUpdate, table: g.table,
			key: []rel.Value{rel.Int(int64(k))}, attrs: g.attrs, vals: vals})
	}
	return out
}

func newUpdateGen(seed int64, table string, attrs []string, cur []int64, m int,
	draw func(*rand.Rand, int64) (int64, []rel.Value)) *updateGen {
	rng := streamRNG(seed, 1)
	return &updateGen{rng: rng, cycle: newPermCycle(rng, len(cur)), table: table, attrs: attrs, cur: cur, m: m, draw: draw}
}

// newPriceGen is the spj_price stream: price updates on distinct parts (a
// non-conditional attribute: the view's selection does not read it).
// Prices live in 1..100; stepping by 1..99 always changes them.
func newPriceGen(seed int64, prices []int64, m int) *updateGen {
	return newUpdateGen(seed, "parts", []string{"price"}, prices, m,
		func(rng *rand.Rand, cur int64) (int64, []rel.Value) {
			p := 1 + (cur+int64(rng.Intn(99)))%100
			return p, []rel.Value{rel.Int(p)}
		})
}

// newUserGen is the paper's §7.1 stream: distinct users get a new
// (tweetsnum, favornum); tweetsnum, in 0..999, always changes.
func newUserGen(seed int64, tweets []int64, m int) *updateGen {
	return newUpdateGen(seed, "user", []string{"tweetsnum", "favornum"}, tweets, m,
		func(rng *rand.Rand, cur int64) (int64, []rel.Value) {
			t := (cur + 1 + int64(rng.Intn(999))) % 1000
			return t, []rel.Value{rel.Int(t), rel.Int(int64(rng.Intn(500)))}
		})
}

// zipfCDF is the cumulative distribution of P(k) ∝ (1+k)^-s over
// 0..n-1 — the distribution rand.NewZipf(rng, s, 1, n-1) samples, kept as
// a table so draws can be stratified.
type zipfCDF []float64

func newZipfCDF(n int, s float64) zipfCDF {
	c := make(zipfCDF, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(1+k), -s)
		c[k] = sum
	}
	for k := range c {
		c[k] /= sum
	}
	return c
}

// at inverts the distribution: the rank whose cumulative mass covers u.
func (c zipfCDF) at(u float64) int {
	k := sort.SearchFloat64s(c, u)
	if k >= len(c) {
		k = len(c) - 1
	}
	return k
}

// stratified draws n ranks, one from each of n equal slices of the unit
// interval — all at the same offset inside their slice — in shuffled
// order.
func (c zipfCDF) stratified(rng *rand.Rand, n int, offset float64) []int {
	out := make([]int, n)
	for j := range out {
		out[j] = c.at((float64(j) + offset) / float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tweetGen is the feed_serving stream: each round inserts M/2 tweets by
// Zipf-distributed authors and deletes the M/2 oldest live tweets, so the
// tweets table keeps its size. The feed view must keep its size too — its
// rows are what the epoch advance and the heap metrics scale with — and
// one tweet by the top author is 0.8 % of it, so authors come in blocks
// of feedStratum stratified draws whose offset walks the unit interval by
// the golden ratio: over any run of blocks every author's share of the
// tweets stays within one tweet of its probability, whatever the seed.
type tweetGen struct {
	rng     *rand.Rand
	authors zipfCDF
	offset  float64
	buf     []int   // authors drawn but not yet used
	live    []int64 // FIFO of live tweet ids, oldest first
	nextID  int64
	m       int
}

const feedStratum = 16

// author returns the next tweet's author.
func (g *tweetGen) author() int64 {
	if len(g.buf) == 0 {
		g.buf = g.authors.stratified(g.rng, feedStratum, g.offset)
		g.offset = math.Mod(g.offset+math.Phi-1, 1)
	}
	a := g.buf[0]
	g.buf = g.buf[1:]
	return int64(a)
}

// newTweetGen also returns the initial tweets (twid, author), drawn like
// the stream's so the view starts at its stationary size.
func newTweetGen(seed int64, users, tweets, m int, s float64) (*tweetGen, [][2]int64) {
	rng := streamRNG(seed, 1)
	g := &tweetGen{rng: rng, authors: newZipfCDF(users, s), offset: rng.Float64(), m: m}
	initial := make([][2]int64, tweets)
	for i := range initial {
		initial[i] = [2]int64{g.nextID, g.author()}
		g.live = append(g.live, g.nextID)
		g.nextID++
	}
	return g, initial
}

func (g *tweetGen) next() []mod {
	out := make([]mod, 0, g.m)
	for i := 0; i < g.m/2; i++ {
		id := g.nextID
		g.nextID++
		g.live = append(g.live, id)
		out = append(out, mod{kind: db.ModInsert, table: "tweets", row: rel.Tuple{rel.Int(id), rel.Int(g.author())}})
		old := g.live[0]
		g.live = g.live[1:]
		out = append(out, mod{kind: db.ModDelete, table: "tweets", key: []rel.Value{rel.Int(old)}})
	}
	return out
}

// readSpec describes one family of keyed reads: SELECT cols FROM view
// WHERE col = <key>, with keys drawn by draw.
type readSpec struct {
	view string
	col  string
	cols []string
	draw func(rng *rand.Rand) int64
}

func (s readSpec) make(rng *rand.Rand) read {
	k := s.draw(rng)
	return read{
		sql:  fmt.Sprintf("SELECT %s FROM %s WHERE %s = %d", strings.Join(s.cols, ", "), s.view, s.col, k),
		view: s.view, col: s.col, val: rel.Int(k), cols: s.cols,
	}
}

// pageGen yields read pages of k reads, cycling over its read families.
type pageGen struct {
	rng   *rand.Rand
	specs []readSpec
	k     int
}

func newPageGen(seed int64, k int, specs ...readSpec) *pageGen {
	return &pageGen{rng: streamRNG(seed, 2), specs: specs, k: k}
}

func (g *pageGen) next() []read {
	out := make([]read, g.k)
	for i := range out {
		out[i] = g.specs[i%len(g.specs)].make(g.rng)
	}
	return out
}

func uniformKey(n int) func(*rand.Rand) int64 {
	return func(rng *rand.Rand) int64 { return int64(rng.Intn(n)) }
}
