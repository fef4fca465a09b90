package algebra

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"idivm/internal/expr"
	"idivm/internal/rel"
)

// unionTower is the union the γ rules build over per-diff contributions
// (unionPlans in internal/ivm): one untagged ∪all of the branches.
func unionTower(branches ...Node) Node { return NewUnionAll("", branches...) }

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

// TestUnionTowerFoldsBranchByBranch compiles a γ over an untagged
// three-branch union to one n-ary union under the γ, and checks that the γ
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

// TestUnionBranchColumnMatchesBinaryUnion unites two untagged unions with a
// tagged ∪all whose branch attribute is read, as the MIN/MAX rule's ΔX does:
// the compiled plan is a two-branch union tagged 0 and 1 over two untagged
// two-branch unions, and it yields the oracle's rows and branch column, in
// order, whichever branches are empty — read whole at the root, and by a
// semijoin's residual branch by branch.
func TestUnionBranchColumnMatchesBinaryUnion(t *testing.T) {
	u := NewUnionAll("isAdd", unionTower(towerLeaf("a"), towerLeaf("b")), unionTower(towerLeaf("c"), towerLeaf("a")))
	c, err := compileNode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	cu := c.(*cUnion)
	if len(cu.branches) != 2 || len(cu.tags) != 2 {
		t.Fatalf("compiled to %d branches with %d tags, want 2 tagged", len(cu.branches), len(cu.tags))
	}
	for i, br := range cu.branches {
		if in, ok := br.(*cUnion); !ok || len(in.branches) != 2 || in.tags != nil {
			t.Fatalf("branch %d compiled to %T, want an untagged two-branch union", i, br)
		}
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

// TestAntiJoinFiltersTowerBranchByBranch compiles γ over (∪all ▷ keys), the
// shape of the γ rules' unmatched streams: the antijoin's filtered side is
// an untagged three-branch union, and the antijoin hands γ each branch
// narrowed where it lies — a part reads its branch's own payload slices
// (only a selection is new) — so a warm run allocates the same objects at
// 16 and at 2 048 rows a branch, and fewer bytes than a concatenated column.
func TestAntiJoinFiltersTowerBranchByBranch(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops what is put back at random (the race detector's pool does)")
	}
	keys := NewRelRef("keys", rel.NewSchema([]string{"jk"}, nil))
	anti := NewAntiJoin(unionTower(towerLeaf("a"), towerLeaf("b"), towerLeaf("c")), keys, expr.Eq(expr.C("k"), expr.C("jk")))
	plan := NewGroupBy(anti, []string{"k"}, []Agg{{Fn: AggSum, Arg: expr.C("v"), As: "s"}, {Fn: AggCount, As: "n"}})
	p := MustCompile(plan)
	semi, ok := p.root.(*cGroupBy).child.(*cSemi)
	if !ok {
		t.Fatalf("γ's child compiled to %T, want the antijoin", p.root.(*cGroupBy).child)
	}
	if u, ok := semi.left.(*cUnion); !ok || len(u.branches) != 3 {
		t.Fatalf("the antijoin's filtered side compiled to %T, want one three-branch union", semi.left)
	}
	d, _ := scratchDB()
	allocs := map[int]float64{}
	for _, n := range []int{16, 2048} {
		// The even keys, n of them: the key side's chains and the γ's stay
		// within four times each other, so the pooled scratch they share
		// keeps both (rel.Reuse's rule).
		keyRows := rel.NewRelation(keys.Sch)
		for i := 0; i < n; i++ {
			keyRows.Add(rel.Tuple{rel.Int(int64(2 * (i % 4)))})
		}
		binds := towerSides(n)
		binds["keys"] = rel.BindRelation(keyRows)
		env := &bindingEnv{Env: d, binds: binds}
		for _, q := range []Node{anti, plan} {
			want, err := Eval(q, env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MustCompile(q).Run(env)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%d rows a branch, %T", n, q), got, want)
		}
		parts, err := runParts(semi, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 3 {
			t.Fatalf("%d rows a branch: the antijoin returned %d parts, want one per branch", n, len(parts))
		}
		for i, name := range []string{"a", "b", "c"} {
			src := binds[name].Batch()
			for j := range src.Cols {
				if &parts[i].Cols[j].Nums[0] != &src.Cols[j].Nums[0] {
					t.Fatalf("%d rows a branch: part %d column %d copied its branch's payload", n, i, j)
				}
			}
			if parts[i].N != n/2 {
				t.Fatalf("%d rows a branch: part %d kept %d rows, want %d", n, i, parts[i].N, n/2)
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[n] = testing.AllocsPerRun(50, func() {
			if _, err := p.Bind(env); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		if perRun, column := (after.TotalAlloc-before.TotalAlloc)/51, uint64(3*n*8); n > 16 && perRun >= column {
			t.Errorf("%d rows a branch: %d bytes a run, as much as a concatenated column (%d)", n, perRun, column)
		}
	}
	if allocs[16] != allocs[2048] {
		t.Errorf("%v allocations at 16 rows a branch, %v at 2 048", allocs[16], allocs[2048])
	}
}

// TestLiteralsAreConstantColumns: a π literal, like the ±1→Δcnt the γ rules
// add to every branch, and a tagged union's branch column are constant
// columns: a π with a literal allocates what the π without it does (the
// batch and its columns), and a tagged union's part only the batch and its
// columns, at 16 rows as at 4 096.
func TestLiteralsAreConstantColumns(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops what is put back at random (the race detector's pool does)")
	}
	swap := []ProjItem{{E: expr.C("v"), As: "v"}, {E: expr.C("k"), As: "k"}}
	withLit := append(slices.Clone(swap), ProjItem{E: expr.IntLit(-1), As: "d"}, ProjItem{E: expr.StrLit("x"), As: "s"})
	tagged := NewUnionAll("isAdd", towerLeaf("a"), towerLeaf("b"))
	d, _ := scratchDB()
	for _, n := range []int{16, 4096} {
		env := &bindingEnv{Env: d, binds: towerSides(n)}
		count := func(plan Node) float64 {
			t.Helper()
			c, err := compileNode(plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Eval(plan, env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&ExecPlan{root: c, sch: plan.Schema()}).Run(env)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, plan.String(), got, want)
			var buf []*rel.Batch
			return testing.AllocsPerRun(20, func() {
				parts, err := runParts(c, env, buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				buf = parts
			})
		}
		if lit, plain := count(NewProject(towerLeaf("a"), withLit)), count(NewProject(towerLeaf("a"), swap)); lit != plain || plain != 2 {
			t.Errorf("%d rows: a π with literals allocates %v, without %v; want 2 for both", n, lit, plain)
		}
		if tags := count(tagged); tags != 4 {
			t.Errorf("%d rows: a tagged union's two parts allocate %v, want a batch and its columns each (4)", n, tags)
		}
	}
}
