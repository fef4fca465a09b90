package algebra

import (
	"math"
	"testing"

	"idivm/internal/rel"
)

// TestKeysSameIdxIsKeyEquality pins the verification step of the hash
// kernels to the equivalence their buckets are filed under: two candidates
// that share a 64-bit digest match only when their EncodeKey bytes do. Same
// would also accept 2^53 against 2^53+1 and NaN against any number.
func TestKeysSameIdxIsKeyEquality(t *testing.T) {
	const p53 = int64(1) << 53
	sch := rel.NewSchema([]string{"k"}, nil)
	one := func(v rel.Value) *rel.Batch { return rel.FromTuples(sch, []rel.Tuple{{v}}) }
	for _, c := range []struct {
		l, r rel.Value
		want bool
	}{
		{rel.Int(p53), rel.Int(p53 + 1), false},
		{rel.Int(p53), rel.Float(float64(p53)), true},
		{rel.Int(p53 + 1), rel.Float(float64(p53)), false},
		{rel.Float(math.NaN()), rel.Float(5), false},
		{rel.Float(math.NaN()), rel.Float(math.NaN()), true},
		{rel.Float(math.Copysign(0, -1)), rel.Int(0), true},
		{rel.Null(), rel.Null(), true},
		{rel.Null(), rel.Int(0), false},
	} {
		if got := keysSameIdx(one(c.l), one(c.r), []int{0}, []int{0}, 0, 0); got != c.want {
			t.Errorf("keysSameIdx(%v, %v) = %v, want %v", c.l, c.r, got, c.want)
		}
	}
}
