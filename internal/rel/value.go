// Package rel implements the relational substrate of idIVM: typed values,
// tuples, schemas with primary keys, in-memory relations, and instrumented
// stored tables whose every tuple access and index lookup is counted.
//
// The access counters implement the cost model of the paper's Section 6 /
// Appendix A, which measures IVM cost as the combined number of tuple
// accesses and index lookups.
package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL-style scalar. The zero Value is NULL.
// Value is a comparable struct, 32 bytes wide: the kind, one 64-bit word
// holding a bool (0 or 1), an int64 or a float64's bits, and a string
// header. A payload field the kind does not use is zero, so == is identity
// of kind and payload (for floats, of bits: -0.0 and 0 differ under ==, and
// a NaN equals itself; Same and KeyEqual are the value equivalences).
type Value struct {
	Kind Kind
	n    uint64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, n: 1}
	}
	return Value{Kind: KindBool}
}

// Int returns a 64-bit integer value.
func Int(i int64) Value { return Value{Kind: KindInt, n: uint64(i)} }

// Float returns a 64-bit floating point value.
func Float(f float64) Value { return Value{Kind: KindFloat, n: math.Float64bits(f)} }

// String returns a string value. (Use Value.Text to read it back.)
func String(s string) Value { return Value{Kind: KindString, s: s} }

// int and float read the payload word of an int and a float.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool returns the boolean payload; it is false unless Kind is KindBool.
func (v Value) AsBool() bool { return v.Kind == KindBool && v.n != 0 }

// AsInt returns the value as an int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindBool:
		return v.int()
	case KindFloat:
		return int64(v.float())
	}
	return 0
}

// AsFloat returns the value as a float64 (ints are widened).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.int())
	case KindFloat:
		return v.float()
	}
	return 0
}

// Text returns the string payload; it is empty unless Kind is KindString.
func (v Value) Text() string {
	if v.Kind == KindString {
		return v.s
	}
	return ""
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Equal reports whether two values are equal. Numeric values of different
// kinds compare by numeric value; NULL equals nothing, including NULL
// (SQL semantics). Use Same for NULL-aware identity.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	c, ok := v.compare(o)
	return ok && c == 0
}

// Same reports structural identity: like Equal, but NULL is the same as NULL.
// This is the grouping/key equivalence used by indexes and group-by.
func (v Value) Same(o Value) bool {
	if v.Kind == KindNull && o.Kind == KindNull {
		return true
	}
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	c, ok := v.compare(o)
	return ok && c == 0
}

// Compare returns -1, 0 or +1 ordering v relative to o, and ok=false when
// the values are incomparable (NULL involved or kind mismatch that is not
// numeric/numeric).
func (v Value) Compare(o Value) (int, bool) { return v.compare(o) }

func (v Value) compare(o Value) (int, bool) {
	if v.Kind == KindNull || o.Kind == KindNull {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindBool:
		switch {
		case v.n == o.n:
			return 0, true
		case v.n == 0:
			return -1, true
		default:
			return 1, true
		}
	case KindString:
		return strings.Compare(v.s, o.s), true
	}
	return 0, false
}

// SortCompare provides a total order over all values for deterministic
// output: NULL < bool < numerics < string, with numerics ordered by value.
func (v Value) SortCompare(o Value) int {
	r := func(k Kind) int {
		switch k {
		case KindNull:
			return 0
		case KindBool:
			return 1
		case KindInt, KindFloat:
			return 2
		default:
			return 3
		}
	}
	ra, rb := r(v.Kind), r(o.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if c, ok := v.compare(o); ok {
		return c
	}
	return 0
}

// EncodeKey appends a canonical, injective encoding of v to b, suitable for
// use in hash keys. An int and the integral float of the same value encode
// identically; equal encodings are KeyEqual, which is finer than Same.
func (v Value) EncodeKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, 'n', 0)
	case KindBool:
		return append(b, 'b', byte(v.n), 0)
	case KindInt:
		// Integral floats and ints must encode identically.
		return appendNumKey(b, 0, v.int(), true)
	case KindFloat:
		f := v.float()
		if f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			return appendNumKey(b, f, int64(f), true)
		}
		return appendNumKey(b, f, 0, false)
	case KindString:
		b = append(b, 's')
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == 0 || c == 1 {
				b = append(b, 1) // escape
			}
			b = append(b, c)
		}
		return append(b, 0)
	}
	return append(b, '?', 0)
}

func appendNumKey(b []byte, f float64, i int64, integral bool) []byte {
	b = append(b, 'i')
	if integral {
		b = strconv.AppendInt(b, i, 10)
	} else {
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return append(b, 0)
}

// keyNum is EncodeKey's canonical form of a numeric value without the
// printing: the int64 of an int or of an integral float EncodeKey prints as
// one (so Float(2) and Int(2), or -0.0 and 0, coincide), else the float's
// bits with every NaN folded onto one pattern ('g' prints them all "NaN").
func (v Value) keyNum() (bits uint64, integral bool) {
	if v.Kind == KindInt {
		return v.n, true
	}
	f := v.float()
	if f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
		return uint64(int64(f)), true
	}
	if f != f {
		return math.Float64bits(math.NaN()), false
	}
	return v.n, false
}

// KeyEqual reports whether v and o encode to the same key:
//
//	v.KeyEqual(o)  ⇔  bytes.Equal(v.EncodeKey(nil), o.EncodeKey(nil))
//
// without encoding either. It is the equivalence stored tables index under,
// and finer than Same, which compares numerics through float64: Int(1<<53)
// and Int(1<<53+1) are Same but not KeyEqual, and NaN is KeyEqual only to NaN.
func (v Value) KeyEqual(o Value) bool {
	if v.Kind == KindInt && o.Kind == KindInt {
		return v.n == o.n
	}
	if v.IsNumeric() && o.IsNumeric() {
		vb, vi := v.keyNum()
		ob, oi := o.keyNum()
		return vb == ob && vi == oi
	}
	if v.Kind != o.Kind {
		return false
	}
	return v.n == o.n && v.s == o.s
}

// digestMask truncates every key digest; all ones outside tests (see
// export_test.go, which narrows it so that chains mix keys).
var digestMask = ^uint64(0)

// digestSeed starts a key digest.
const digestSeed = 0x9e3779b97f4a7c15

// mix folds x into the running digest h. For a fixed h it is a bijection of
// x, so single-column integer keys never share a digest.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// keyDigest folds v into the running 64-bit digest h such that KeyEqual
// values fold alike — the digest of a key is a hash of what EncodeKey would
// print, computed from the canonical values instead of from the print.
func (v Value) keyDigest(h uint64) uint64 {
	switch v.Kind {
	case KindInt:
		return mix(h, v.n)
	case KindFloat:
		bits, integral := v.keyNum()
		if !integral {
			h = mix(h, 'f')
		}
		return mix(h, bits)
	case KindBool:
		return mix(mix(h, 'b'), v.n)
	case KindString:
		h = mix(h, 's')
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * 0x100000001b3
		}
		return mix(h, uint64(len(v.s)))
	}
	return mix(mix(h, 'n'), 0)
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	}
	return "?"
}

// Add returns the numeric sum of two values; NULL propagates.
func Add(a, b Value) Value { return arith(a, b, '+') }

// Sub returns a-b; NULL propagates.
func Sub(a, b Value) Value { return arith(a, b, '-') }

// Mul returns a*b; NULL propagates.
func Mul(a, b Value) Value { return arith(a, b, '*') }

// Div returns a/b; NULL propagates and division by zero yields NULL.
func Div(a, b Value) Value { return arith(a, b, '/') }

func arith(a, b Value, op byte) Value {
	if a.IsNull() || b.IsNull() || !a.IsNumeric() || !b.IsNumeric() {
		return Null()
	}
	if a.Kind == KindInt && b.Kind == KindInt && op != '/' {
		x, y := a.int(), b.int()
		switch op {
		case '+':
			return Int(x + y)
		case '-':
			return Int(x - y)
		case '*':
			return Int(x * y)
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return Float(x + y)
	case '-':
		return Float(x - y)
	case '*':
		return Float(x * y)
	case '/':
		if y == 0 {
			return Null()
		}
		return Float(x / y)
	}
	return Null()
}
