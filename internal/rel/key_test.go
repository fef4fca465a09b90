package rel

import (
	"bytes"
	"math"
	"testing"
)

// The contract the keyless indexes rest on (DESIGN.md §9): KeyEqual is
// exactly equality of the EncodeKey encodings, on values and column-wise on
// tuples, and KeyEqual keys have equal digests — so two values share an index
// chain whenever they compare equal, and a chain's readers, which verify
// with KeyEqual, accept exactly the rows a string-keyed bucket would hold.

func checkKeyPair(t *testing.T, a, b Value) {
	t.Helper()
	eq := a.KeyEqual(b)
	if enc := bytes.Equal(a.EncodeKey(nil), b.EncodeKey(nil)); eq != enc {
		t.Errorf("%v.KeyEqual(%v) = %v, but their encodings %q and %q are equal: %v", a, b, eq, a.EncodeKey(nil), b.EncodeKey(nil), enc)
	}
	if b.KeyEqual(a) != eq {
		t.Errorf("KeyEqual is not symmetric on %v, %v", a, b)
	}
	if eq && a.keyDigest(digestSeed) != b.keyDigest(digestSeed) {
		t.Errorf("%v and %v are KeyEqual but digest to %#x and %#x", a, b, a.keyDigest(digestSeed), b.keyDigest(digestSeed))
	}
}

func checkKeyTuples(t *testing.T, x, y Tuple) {
	t.Helper()
	cols := make([]int, len(x))
	eq := len(x) == len(y)
	for i := range x {
		cols[i] = i
		eq = eq && x[i].KeyEqual(y[i])
	}
	if enc := bytes.Equal(AppendTupleKey(nil, x), AppendTupleKey(nil, y)); eq != enc {
		t.Errorf("%v and %v: column-wise KeyEqual = %v, equal encodings = %v", x, y, eq, enc)
	}
	if eq && KeyDigest(x) != KeyDigest(y) {
		t.Errorf("%v and %v are KeyEqual but digest to %#x and %#x", x, y, KeyDigest(x), KeyDigest(y))
	}
	if digestCols(x, cols) != KeyDigest(x) {
		t.Errorf("%v: the digest of a row's columns differs from the digest of the same values as a probe", x)
	}
}

// keyEdgeValues are the values around every seam of EncodeKey's
// canonicalisation: float64's integer precision (2^53), the ±9.2e18 window
// inside which an integral float encodes as an int, the int64 range ends,
// NaN (two payloads), the infinities, both zeros, and strings holding the
// encoding's own delimiter and escape bytes.
var keyEdgeValues = []Value{
	Null(), Bool(false), Bool(true),
	Int(0), Int(1), Int(2), Int(-1), Float(0), Float(math.Copysign(0, -1)), Float(2), Float(2.5), Float(-1),
	Int(1 << 53), Int(1<<53 + 1), Int(-(1 << 53)), Int(-(1<<53 + 1)), Float(1 << 53), Float(-(1 << 53)), Float(1<<53 + 2),
	Int(9200000000000000000), Float(9.2e18), Int(-9200000000000000000), Float(-9.2e18),
	Float(9.3e18), Float(-9.3e18), Int(math.MaxInt64), Int(math.MinInt64), Float(math.MaxInt64), Float(math.MinInt64),
	Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000123)), Float(math.Inf(1)), Float(math.Inf(-1)),
	Float(1e300), Float(5e-324), Float(0.1), Float(1e19),
	String(""), String("a"), String("\x00"), String("\x01"), String("\x01\x00"), String("a\x00"), String("a\x00b"), String("n"), String("i2"),
	String("NaN"), String("2"), String("true"),
}

// Every pair of edge values, and every pair of 2-tuples over a spread of
// them — the seed corpus of FuzzValueKey as a plain test.
func TestKeyEqualIsEncodedKeyEquality(t *testing.T) {
	for _, a := range keyEdgeValues {
		for _, b := range keyEdgeValues {
			checkKeyPair(t, a, b)
			checkKeyTuples(t, Tuple{a, b}, Tuple{b, a})
			checkKeyTuples(t, Tuple{a, b}, Tuple{a, a})
			checkKeyTuples(t, Tuple{a}, Tuple{a, b})
		}
	}
	// Injective across column boundaries.
	checkKeyTuples(t, Tuple{String("ab"), String("c")}, Tuple{String("a"), String("bc")})
	checkKeyTuples(t, Tuple{String("a\x00"), String("")}, Tuple{String("a"), String("\x00")})
	// What the issue names: equal int and integral float alike, neighbours
	// above 2^53 apart.
	if !Int(2).KeyEqual(Float(2)) || Int(1<<53).KeyEqual(Int(1<<53+1)) || !Float(math.NaN()).KeyEqual(Float(math.NaN())) || Float(math.NaN()).KeyEqual(Int(7)) {
		t.Error("KeyEqual: Int(2)~Float(2), Int(2^53)≁Int(2^53+1), NaN~NaN, NaN≁7 must hold")
	}
}

// fuzzValue builds a value of any of the five kinds from fuzzed scalars;
// selector 5 is the float of an int, so int/float coincidences are common.
func fuzzValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 6 {
	case 0:
		return Null()
	case 1:
		return Bool(i&1 == 1)
	case 2:
		return Int(i)
	case 3:
		return Float(f)
	case 4:
		return String(s)
	}
	return Float(float64(i))
}

// FuzzValueKey checks the contract on arbitrary value pairs and on short
// tuples built from them (including the same bytes split at two different
// column boundaries).
func FuzzValueKey(f *testing.F) {
	f.Add(uint8(2), int64(1<<53), 0.0, "", uint8(2), int64(1<<53+1), 0.0, "")
	f.Fuzz(func(t *testing.T, ak uint8, ai int64, af float64, as string, bk uint8, bi int64, bf float64, bs string) {
		a, b := fuzzValue(ak, ai, af, as), fuzzValue(bk, bi, bf, bs)
		checkKeyPair(t, a, b)
		checkKeyPair(t, a, a)
		checkKeyTuples(t, Tuple{a, b}, Tuple{b, a})
		checkKeyTuples(t, Tuple{a, b}, Tuple{a, a})
		checkKeyTuples(t, Tuple{a, b, a}, Tuple{a, b})
		h := len(bs) / 2
		checkKeyTuples(t, Tuple{String(as), String(bs)}, Tuple{String(as + bs[:h]), String(bs[h:])})
	})
}

// unmix inverts mix in its second argument: unmix(h, mix(h, x)) == x. The
// xor-shift by 32 is its own inverse and the odd multiplier has an inverse
// modulo 2^64 (Newton's iteration doubles the correct bits each round).
func unmix(h, y uint64) uint64 {
	const c = 0xff51afd7ed558ccd
	inv := uint64(c) // correct to 3 bits, as c*c ≡ 1 (mod 8)
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return (y^y>>32)*inv ^ h
}

// hashIndex.exact rests on this: the digest of a single int is a bijection
// of its bits, so two ints with equal digests are equal.
func TestMixIsABijection(t *testing.T) {
	xs := []uint64{0, 1, 2, 1 << 31, 1 << 32, 1<<32 + 1, 1 << 53, 1<<63 - 1, 1 << 63, ^uint64(0), digestSeed, 0xff51afd7ed558ccd}
	for i := uint64(1); i < 2000; i++ {
		xs = append(xs, i*0x9e3779b97f4a7c15, i<<40|i)
	}
	for _, x := range xs {
		for _, h := range []uint64{digestSeed, 0, ^uint64(0), x} {
			if got := unmix(h, mix(h, x)); got != x {
				t.Fatalf("unmix(%#x, mix(%#x, %#x)) = %#x", h, h, x, got)
			}
		}
		if d := KeyDigest([]Value{Int(int64(x))}); unmix(digestSeed, d) != x {
			t.Fatalf("the digest of Int(%d) is not mix of its bits", int64(x))
		}
	}
}

// A real 64-bit collision, made by inverting mix: the int whose digest is
// that of Float(0.5). In a one-column index the two share a chain; every
// reader and writer must still tell them apart, whether the float arrives
// after the index was built (and ends its exact phase) or before.
func TestCollidingKeysShareAChainAndStayApart(t *testing.T) {
	half := Float(0.5)
	twin := Int(int64(unmix(digestSeed, KeyDigest([]Value{half}))))
	if KeyDigest([]Value{twin}) != KeyDigest([]Value{half}) || twin.KeyEqual(half) {
		t.Fatalf("%v and %v: want distinct keys with one digest", twin, half)
	}
	onG := []string{"g"}
	count := func(tab *Table, g Value, want int) {
		t.Helper()
		rows, err := tab.Lookup(StatePost, onG, []Value{g})
		p, _, err2 := tab.IndexCard(StatePost, onG, []Value{g})
		if err != nil || err2 != nil || len(rows) != want || p != want {
			t.Fatalf("Lookup(g=%v) = %v, %v; IndexCard = %d, %v; want %d rows", g, rows, err, p, err2, want)
		}
		for _, r := range rows {
			if !r[1].KeyEqual(g) {
				t.Fatalf("Lookup(g=%v) returned %v", g, r)
			}
		}
	}
	for _, buildFirst := range []bool{true, false} {
		tab := MustNewTable("t", NewSchema([]string{"k", "g"}, []string{"k"}))
		tab.MustInsert(Int(1), twin)
		if buildFirst {
			count(tab, twin, 1) // builds the index over ints only
			count(tab, half, 0)
		}
		tab.MustInsert(Int(2), half)
		tab.MustInsert(Int(3), twin)
		tab.MustInsert(Int(4), half)
		count(tab, twin, 2)
		count(tab, half, 2)
		if n, err := UpdateRowsWhere(tab, onG, []Value{half}, onG, []Value{Int(7)}, nil); n != 2 || err != nil {
			t.Fatalf("UpdateWhere(g=0.5) = %d, %v; want 2", n, err)
		}
		count(tab, half, 0)
		count(tab, Int(7), 2)
		count(tab, twin, 2)
		tab.MustInsert(Int(5), half)
		if n, err := DeleteRowsWhere(tab, onG, []Value{twin}, nil); n != 2 || err != nil { // part of a chain
			t.Fatalf("DeleteWhere(g=twin) = %d, %v; want 2", n, err)
		}
		count(tab, twin, 0)
		count(tab, half, 1)
		if err := tab.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchKeyDigestsMatchKeyDigest pins the column-at-a-time digest of the
// hash kernels to the one the stored indexes use: for every row of a batch —
// dense int columns, int columns with NULLs, mixed-kind columns, columns
// behind a gather vector — KeyDigestsInto over a column set is KeyDigest of the
// row's values there, so a batch row and a stored row that are KeyEqual fold
// alike.
func TestBatchKeyDigestsMatchKeyDigest(t *testing.T) {
	var rows []Tuple
	for i, v := range keyEdgeValues {
		rows = append(rows, Tuple{Int(int64(i * 7)), v, keyEdgeValues[(i+5)%len(keyEdgeValues)], Int(int64(i % 3))})
	}
	rows[4][3] = Null() // column 3: ints with a NULL
	b := FromTuples(NewSchema([]string{"dense", "edge", "edge2", "sparse"}, nil), rows)
	sel := make([]int32, 0, len(rows))
	for i := len(rows) - 1; i >= 0; i -= 2 {
		sel = append(sel, int32(i))
	}
	for name, bb := range map[string]*Batch{"dense": b, "gathered": b.GatherRows(sel)} {
		for _, cols := range [][]int{{0}, {1}, {3}, {0, 3}, {1, 2}, {2, 0, 1, 3}, nil} {
			dig := bb.KeyDigestsInto(cols, nil)
			var row Tuple
			for i := 0; i < bb.Len(); i++ {
				row = bb.Row(i, row)
				key := make([]Value, len(cols))
				for k, j := range cols {
					key[k] = row[j]
				}
				if dig[i] != KeyDigest(key) {
					t.Fatalf("%s cols %v row %d (%v): KeyDigestsInto %#x, KeyDigest %#x", name, cols, i, key, dig[i], KeyDigest(key))
				}
			}
		}
	}
}

// TestDigestChains files entries under a handful of digests, in the three
// shapes the kernels use — a build side pushed last row first, ordinals
// pushed as they are assigned, and sparse row numbers — and reads every chain
// back newest first.
func TestDigestChains(t *testing.T) {
	const n = 200
	digest := func(e int) uint64 { return mix(digestSeed, uint64(e%13)) }
	check := func(c *DigestChains, entries []int32) {
		t.Helper()
		want := map[uint64][]int32{}
		for _, e := range entries {
			want[digest(int(e))] = append([]int32{e}, want[digest(int(e))]...)
		}
		for d, chain := range want {
			e := c.First(d)
			for _, w := range chain {
				if e != w {
					t.Fatalf("chain of %#x: entry %d, want %d", d, e, w)
				}
				e = c.Next(e)
			}
			if e != -1 {
				t.Fatalf("chain of %#x continues with %d", d, e)
			}
		}
		if c.First(mix(digestSeed, 99)) != -1 {
			t.Fatal("a digest nobody filed has a chain")
		}
	}
	var build, grown, sparse DigestChains
	var be, ge, se []int32
	build.Reserve(n)
	for e := n - 1; e >= 0; e-- {
		build.Push(digest(e), int32(e))
		be = append(be, int32(e))
	}
	for e := 0; e < n; e++ {
		grown.Push(digest(e), int32(e))
		ge = append(ge, int32(e))
	}
	for e := 3; e < n; e += 7 {
		sparse.Push(digest(e), int32(e))
		se = append(se, int32(e))
	}
	check(&build, be)
	check(&grown, ge)
	check(&sparse, se)
	if e := build.First(digest(5)); e != 5 {
		t.Fatalf("a build side pushed last row first must chain ascending: head %d", e)
	}
	// Reset forgets every entry and keeps the storage: refiling a subset
	// allocates nothing and chains only what was filed since.
	var even []int32
	refile := func() {
		grown.Reset()
		even = even[:0]
		for e := 0; e < n; e += 2 {
			grown.Push(digest(e), int32(e))
			even = append(even, int32(e))
		}
	}
	refile()
	if a := testing.AllocsPerRun(10, refile); a != 0 {
		t.Fatalf("refiling after Reset allocated %v objects", a)
	}
	check(&grown, even)
	if grown.Reset(); grown.First(digest(0)) != -1 {
		t.Fatal("an entry survived Reset")
	}
}
