package algebra

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"idivm/internal/expr"
	"idivm/internal/rel"
)

// unionTower is the π∘∪all tower the γ rules build over per-diff
// contributions (unionPlans in internal/ivm): the branches united left to
// right, each union's branch attribute dropped by a π above it.
func unionTower(branches ...Node) Node {
	acc := branches[0]
	attrs := acc.Schema().Attrs
	for i, b := range branches[1:] {
		acc = Keep(NewUnionAll(acc, b, fmt.Sprintf("#b%d", i)), attrs...)
	}
	return acc
}

// towerSides are n-row derived inputs a, b and c over k, v: eight keys and
// int values, so that a γ over them has the same output columns at any n.
func towerSides(n int) map[string]*rel.Binding {
	binds := map[string]*rel.Binding{}
	for s, name := range []string{"a", "b", "c"} {
		r := rel.NewRelation(rel.NewSchema([]string{"k", "v"}, nil))
		for i := 0; i < n; i++ {
			r.Add(rel.Tuple{rel.Int(int64((i + s) % 8)), rel.Int(int64(i*7 + s))})
		}
		binds[name] = rel.BindBatch(rel.FromRelation(r))
	}
	return binds
}

func towerLeaf(name string) Node { return NewRelRef(name, rel.NewSchema([]string{"k", "v"}, nil)) }

// TestUnionTowerFoldsBranchByBranch compiles a γ over a three-branch tower to
// one n-ary union without a branch column under the γ, and checks that the γ
// folds the branches where they lie: with rows in every branch, a warm run
// allocates the same objects at 16 and at 2 048 rows a branch — the groups'
// first rows, the key columns gathered at them (batch, columns), the output
// (batch, columns), one payload per aggregate column, the binding: 8 — and
// fewer bytes than one column of the branches' rows would take, so nothing
// concatenates them.
func TestUnionTowerFoldsBranchByBranch(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops what is put back at random (the race detector's pool does)")
	}
	plan := NewGroupBy(unionTower(towerLeaf("a"), towerLeaf("b"), towerLeaf("c")), []string{"k"},
		[]Agg{{Fn: AggSum, Arg: expr.C("v"), As: "s"}, {Fn: AggCount, As: "n"}})
	p := MustCompile(plan)
	u, ok := p.root.(*cGroupBy).child.(*cUnion)
	if !ok || len(u.branches) != 3 || u.tags != nil {
		t.Fatalf("γ's child compiled to %T, want one three-branch union without a branch column", p.root.(*cGroupBy).child)
	}
	d, _ := scratchDB()
	for _, n := range []int{16, 2048} {
		env := &bindingEnv{Env: d, binds: towerSides(n)}
		want, err := Eval(plan, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(env)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("%d rows a branch", n), got, want)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := p.Bind(env); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		if allocs != 8 {
			t.Errorf("%d rows a branch: %v allocations, want 8", n, allocs)
		}
		if perRun, column := (after.TotalAlloc-before.TotalAlloc)/51, uint64(3*n*8); n > 16 && perRun >= column {
			t.Errorf("%d rows a branch: %d bytes a run, as much as a concatenated column (%d)", n, perRun, column)
		}
	}
}

// TestUnionBranchColumnMatchesBinaryUnion unites two towers with a ∪all whose
// branch attribute is read, as the MIN/MAX rule's ΔX does: the compiled plan
// is one n-ary union with tags 0 for the left tower's branches and 1 for the
// right's, and it yields the binary unions' rows and branch column, in order,
// whichever branches are empty — read whole at the root, and by a semijoin's
// residual branch by branch.
func TestUnionBranchColumnMatchesBinaryUnion(t *testing.T) {
	u := NewUnionAll(unionTower(towerLeaf("a"), towerLeaf("b")), unionTower(towerLeaf("c"), towerLeaf("a")), "isAdd")
	c, err := compileNode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cu := c.(*cUnion); len(cu.branches) != 4 || !slices.Equal(cu.tags, []uint64{0, 0, 1, 1}) {
		t.Fatalf("compiled to %d branches tagged %v, want 4 tagged [0 0 1 1]", len(cu.branches), cu.tags)
	}
	keys := NewRelRef("keys", rel.NewSchema([]string{"jk"}, nil))
	semi := NewSemiJoin(keys, u, expr.And(expr.Eq(expr.C("jk"), expr.C("k")), expr.Eq(expr.C("isAdd"), expr.IntLit(1))))
	d, _ := scratchDB()
	full := towerSides(5)
	keyRows := rel.NewRelation(rel.NewSchema([]string{"jk"}, nil))
	for k := 0; k < 10; k++ {
		keyRows.Add(rel.Tuple{rel.Int(int64(k))})
	}
	for mask := 0; mask < 8; mask++ { // which of a, b and c are empty
		binds := map[string]*rel.Binding{"keys": rel.BindRelation(keyRows)}
		for i, name := range []string{"a", "b", "c"} {
			binds[name] = full[name]
			if mask&(1<<i) != 0 {
				binds[name] = rel.BindBatch(rel.NewBatch(rel.NewSchema([]string{"k", "v"}, nil)))
			}
		}
		env := &bindingEnv{Env: d, binds: binds}
		for _, plan := range []Node{u, semi} {
			want, err := Eval(plan, env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MustCompile(plan).Run(env)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("empty %03b, %T", mask, plan), got, want)
		}
	}
}
