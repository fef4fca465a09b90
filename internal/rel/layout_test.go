package rel

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// Every stored row, diff tuple, cache entry and undo pre-image is a []Value,
// and every batch column a ColVec: their widths are what the rest of the
// system pays per value and per column. A field added to either is a
// deliberate decision, so the widths are pinned here.
func TestLayoutWidths(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32 (kind, one 64-bit payload word, string header)", got)
	}
	if got := unsafe.Sizeof(ColVec{}); got != 104 {
		t.Errorf("ColVec is %d bytes, want 104 (kind, Nums, Strs, Kinds, Idx)", got)
	}
}

// == on Values is identity of kind and payload. The payload word holds a
// float's bits, so -0.0 and 0 differ under == (they are Same and KeyEqual)
// and a NaN is == to itself; constructors leave unused payload zero, so
// equal constructions are ==.
func TestValueIdentity(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	nan := Float(math.NaN())
	for _, c := range []struct {
		name     string
		a, b     Value
		eq, same bool
	}{
		{"true", Bool(true), Bool(true), true, true},
		{"bools", Bool(true), Bool(false), false, false},
		{"int/float", Int(2), Float(2), false, true},
		{"zeros", negZero, Float(0), false, true},
		{"nan", nan, nan, true, true},
		{"strings", String("a"), String("a"), true, true},
		{"empty string/null", String(""), Null(), false, false},
		{"int 0/null", Int(0), Null(), false, false},
		{"null", Null(), Value{}, true, true},
	} {
		if got := c.a == c.b; got != c.eq {
			t.Errorf("%s: %v == %v is %v, want %v", c.name, c.a, c.b, got, c.eq)
		}
		if got := c.a.Same(c.b); got != c.same {
			t.Errorf("%s: %v.Same(%v) is %v, want %v", c.name, c.a, c.b, got, c.same)
		}
	}
	if !negZero.KeyEqual(Float(0)) || !negZero.Same(Float(0)) {
		t.Error("-0.0 must stay KeyEqual and Same to 0")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsFloat() != 0 || !Bool(true).AsBool() || Int(1).AsBool() {
		t.Error("bool payload reads wrong")
	}
	if Int(-7).AsFloat() != -7 || Float(-7.9).AsInt() != -7 || String("x").AsInt() != 0 || Float(2.5).Text() != "" {
		t.Error("numeric payload reads wrong")
	}
}

// checkColumn builds vals into a column three ways — value by value, by
// AppendVec of two dense halves, and as a gathered view — and requires each
// to give back exactly (==) the values it was given, through every reader:
// Value, IsNull, Row, Materialize and KeyDigestsInto. It also checks the layout
// ColVec documents: a VecAny column has Kinds, and every payload slice is
// nil or one entry per row.
func checkColumn(t *testing.T, vals []Value) {
	t.Helper()
	var one ColBuilder
	for _, v := range vals {
		one.Append(v)
	}
	h := len(vals) / 2
	var left, right, both ColBuilder
	for _, v := range vals[:h] {
		left.Append(v)
	}
	for _, v := range vals[h:] {
		right.Append(v)
	}
	lv, rv := left.Vec(), right.Vec()
	both.AppendVec(&lv, h)
	both.AppendVec(&rv, len(vals)-h)
	for _, built := range []struct {
		name string
		c    ColVec
	}{{"append", one.Vec()}, {"appendvec", both.Vec()}} {
		name, c := built.name, built.c
		checkLayout(t, name, &c, len(vals))
		sch := NewSchema([]string{"c"}, nil)
		b := &Batch{Schema: sch, Cols: []ColVec{c}, N: len(vals)}
		rows := b.Materialize().Tuples
		digests := b.KeyDigestsInto([]int{0}, nil)
		for i, want := range vals {
			if got := c.Value(i); got != want {
				t.Fatalf("%s %v: row %d reads %#v, want %#v", name, vals, i, got, want)
			}
			if c.IsNull(i) != want.IsNull() {
				t.Fatalf("%s %v: row %d IsNull = %v", name, vals, i, c.IsNull(i))
			}
			if rows[i][0] != want || b.Row(i, nil)[0] != want {
				t.Fatalf("%s %v: row %d materializes to %#v", name, vals, i, rows[i][0])
			}
			if digests[i] != KeyDigest(Tuple{want}) {
				t.Fatalf("%s %v: row %d digest differs from its value's", name, vals, i)
			}
		}
		// Reversed through a gather, and materialized again.
		sel := make([]int32, len(vals))
		for i := range sel {
			sel[i] = int32(len(vals) - 1 - i)
		}
		for i, tup := range b.GatherRows(sel).Materialize().Tuples {
			if want := vals[len(vals)-1-i]; tup[0] != want {
				t.Fatalf("%s %v: gathered row %d = %#v, want %#v", name, vals, i, tup[0], want)
			}
		}
	}
}

func checkLayout(t *testing.T, name string, c *ColVec, n int) {
	t.Helper()
	for _, l := range []int{len(c.Nums), len(c.Strs), len(c.Kinds)} {
		if l != 0 && l != n {
			t.Fatalf("%s: a payload of %d entries in a column of %d rows", name, l, n)
		}
	}
	switch c.Kind {
	case VecNull:
		if c.Nums != nil || c.Strs != nil || c.Kinds != nil {
			t.Fatalf("%s: a VecNull column holds a payload", name)
		}
	case VecAny:
		if len(c.Kinds) != n {
			t.Fatalf("%s: a VecAny column without per-row kinds", name)
		}
	case VecStr:
		if c.Nums != nil || len(c.Strs) != n {
			t.Fatalf("%s: a VecStr column's payload is not its strings", name)
		}
	default:
		if c.Strs != nil || len(c.Nums) != n {
			t.Fatalf("%s: a %v column's payload is not its words", name, c.Kind)
		}
	}
	for p, k := range c.Kinds {
		if c.Kind != VecAny && k != KindNull && k != c.Kind.valueKind() {
			t.Fatalf("%s: row %d of a %v column has kind %v", name, p, c.Kind, k)
		}
	}
}

// Every ordered pair and triple shape over the key edge values: each typed
// layout meets a NULL before and after its first value, and degrades into
// every other kind, from either side.
func TestColumnRoundTripEdgeValues(t *testing.T) {
	for _, a := range keyEdgeValues {
		for _, b := range keyEdgeValues {
			checkColumn(t, []Value{a, b})
			checkColumn(t, []Value{Null(), a, b, a})
			checkColumn(t, []Value{a, a, Null(), b})
		}
	}
}

// fuzzValues decodes a byte program into values: a selector byte picks the
// kind (as fuzzValue does) and the bytes after it are the payload — eight
// for a number, a length byte and up to three bytes for a string.
func fuzzValues(data []byte) []Value {
	var vals []Value
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		var word [8]byte
		n := copy(word[:], data)
		x := binary.LittleEndian.Uint64(word[:])
		switch sel % 6 {
		case 4:
			if n == 0 {
				return append(vals, String(""))
			}
			l := min(int(data[0]%4), n-1)
			vals = append(vals, String(string(data[1:1+l])))
			data = data[1+l:]
			continue
		case 3:
			vals = append(vals, Float(math.Float64frombits(x)))
		default:
			vals = append(vals, fuzzValue(sel, int64(x), 0, ""))
		}
		if sel%6 != 0 {
			data = data[n:]
		}
	}
	return vals
}

// FuzzColumnRoundTrip runs checkColumn on arbitrary value sequences: the
// column layout must be a lossless, representation-exact store of Values.
func FuzzColumnRoundTrip(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 2, 'a', 'b', 0, 2, 5, 0, 0, 0, 0, 0, 0, 0, 4, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 0x23, 1, 0, 0, 0, 0, 0xf8, 0x7f, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 5, 9, 0, 0, 0, 0, 0, 0, 0, 4, 1, 'z'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if vals := fuzzValues(data); len(vals) > 0 {
			checkColumn(t, vals)
		}
	})
}
