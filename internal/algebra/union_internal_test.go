package algebra

import (
	"testing"

	"idivm/internal/rel"
)

// TestOneSidedUnionSharesItsBranchColumn pins the branch column of a
// compiled ∪all: all 0s when only the left side has rows, all 1s when only
// the right side has, both sliced from the shared read-only vectors with no
// spare capacity, so an append cannot write into them; a union with rows on
// both sides, or more rows than the shared vectors hold, builds its own.
func TestOneSidedUnionSharesItsBranchColumn(t *testing.T) {
	sch := rel.NewSchema([]string{"k"}, []string{"k"})
	rows := func(n int) *rel.Batch {
		ts := make([]rel.Tuple, n)
		for i := range ts {
			ts[i] = rel.Tuple{rel.Int(int64(i))}
		}
		return rel.FromTuples(sch, ts)
	}
	shared := len(branchWords[0])
	for _, tc := range []struct {
		name        string
		left, right int
		isShared    bool
	}{
		{"left only", 5, 0, true},
		{"right only", 0, 5, true},
		{"left only, as many rows as shared", shared, 0, true},
		{"right only, more rows than shared", 0, shared + 1, false},
		{"both sides", 3, 4, false},
	} {
		scan := NewScan("t", "", sch)
		c, err := compileNode(NewUnionAll(scan, scan, "b"), nil)
		if err != nil {
			t.Fatal(err)
		}
		c.(*cUnion).left, c.(*cUnion).right = batchNode{rows(tc.left)}, batchNode{rows(tc.right)}
		out, err := c.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		b := out.Cols[out.Schema.Index("b")]
		if len(b.Nums) != tc.left+tc.right {
			t.Fatalf("%s: %d branch rows, want %d", tc.name, len(b.Nums), tc.left+tc.right)
		}
		for i, w := range b.Nums {
			want := uint64(0)
			if i >= tc.left {
				want = 1
			}
			if w != want {
				t.Fatalf("%s: branch row %d is %d, want %d", tc.name, i, w, want)
			}
		}
		aliases := &b.Nums[0] == &branchWords[0][0] || &b.Nums[0] == &branchWords[1][0]
		if aliases != tc.isShared || aliases && cap(b.Nums) != len(b.Nums) {
			t.Fatalf("%s: shared = %v with capacity %d over %d rows, want shared = %v", tc.name, aliases, cap(b.Nums), len(b.Nums), tc.isShared)
		}
	}
	for w, want := range []uint64{0, 1} {
		for i, v := range branchWords[w] {
			if v != want {
				t.Fatalf("shared branch vector %d was written: row %d is %d", w, i, v)
			}
		}
	}
}
