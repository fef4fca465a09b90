package algebra

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// poisonScratch overwrites every buffer returned to the kernel scratch pool,
// to its full capacity, with sentinels until the test ends: a kernel that
// reads a pooled entry it did not write in the same call, or returns a batch
// that still points into pooled memory, computes with the sentinels.
func poisonScratch(t *testing.T) {
	t.Helper()
	var junk rel.ColBuilder
	junk.Append(rel.String("poison"))
	scratchReleased = func(s *kernelScratch) {
		for i := range s.dig[:cap(s.dig)] {
			s.dig[:cap(s.dig)][i] = 0xdead_beef_dead_beef
		}
		for i := range s.gid[:cap(s.gid)] {
			s.gid[:cap(s.gid)][i] = 1 << 30
		}
		for i := range s.states[:cap(s.states)] {
			s.states[:cap(s.states)][i] = aggState{count: -1 << 40, acc: rel.String("poison")}
		}
		for i := range s.builders[:cap(s.builders)] {
			s.builders[:cap(s.builders)][i] = junk
		}
		for i := range s.row[:cap(s.row)] {
			s.row[:cap(s.row)][i] = rel.String("poison")
		}
		for _, buf := range [][]int32{s.first[:cap(s.first)], s.sel[:cap(s.sel)]} {
			for i := range buf {
				buf[i] = 1 << 30
			}
		}
		for i := range s.ends[:cap(s.ends)] {
			s.ends[:cap(s.ends)][i] = 1 << 30
		}
	}
	t.Cleanup(func() { scratchReleased = nil })
}

// bindingEnv is an environment plus named bindings, built once: reading one
// allocates nothing.
type bindingEnv struct {
	Env
	binds map[string]*rel.Binding
}

func (e bindingEnv) Bound(name string) (*rel.Binding, error) {
	if b, ok := e.binds[name]; ok {
		return b, nil
	}
	return e.Env.Bound(name)
}

// scratchSide is a derived input of n rows over p+"k", p+"s", p+"v": keys
// repeat (m distinct), and the values mix ints, floats, strings and NULLs so
// that every aggregate and a degraded column are exercised. salt varies the
// content between inputs of one size.
func scratchSide(p string, n, m, salt int) *rel.Relation {
	r := rel.NewRelation(rel.NewSchema([]string{p + "k", p + "s", p + "v"}, nil))
	for i := 0; i < n; i++ {
		k := (i*7 + salt) % m
		var v rel.Value
		switch (i + salt) % 6 {
		case 0:
			v = rel.Null()
		case 1:
			v = rel.Float(float64(i) * 0.1)
		default:
			v = rel.Int(int64((i * 13) % 101))
		}
		r.Add(rel.Tuple{rel.Int(int64(k)), rel.String(fmt.Sprintf("s%d", (i+salt)%5)), v})
	}
	return r
}

// scratchPlans are one plan per kernel that works in pooled scratch, each
// asserted to take the strategy it is there for.
func scratchPlans(t *testing.T, st rel.Schema) map[string]Node {
	t.Helper()
	sch := func(p string) rel.Schema { return rel.NewSchema([]string{p + "k", p + "s", p + "v"}, nil) }
	l, r := NewRelRef("l", sch("l")), NewRelRef("r", sch("r"))
	scan := func() *Scan { return NewScan("st", "", st) }
	on := expr.Eq(expr.C("lk"), expr.C("rk"))
	var aggs []Agg
	for _, fn := range []AggFn{AggSum, AggCount, AggAvg, AggMin, AggMax} {
		aggs = append(aggs, Agg{Fn: fn, Arg: expr.C("lv"), As: string(fn) + "_v"})
	}
	aggs = append(aggs,
		Agg{Fn: AggCount, As: "n"},
		Agg{Fn: AggMin, Arg: expr.C("ls"), As: "min_s"},
		Agg{Fn: AggMax, Arg: expr.C("ls"), As: "max_s"},
		Agg{Fn: AggSum, Arg: expr.MulE(expr.C("lv"), expr.IntLit(2)), As: "sum_2v"})
	joins := map[string]*Join{
		"join-hash":       NewJoin(l, r, on),
		"join-hash-match": NewJoin(l, r, expr.And(on, expr.Lt(expr.C("lv"), expr.C("rv")))),
		"join-probe":      NewJoin(r, scan(), expr.Eq(expr.C("rk"), expr.C("st.k"))),
	}
	// A two-branch tower of r and l under r's names: the kernels that read a
	// union's branches one after another number rows across them.
	rl := unionTower(r, renameAs(l, r.Sch.Attrs))
	semis := map[string]struct {
		l, r Node
		pred expr.Expr
		keep bool
	}{
		"semi-hash":             {l, r, on, true},
		"anti-hash-2col":        {l, r, expr.And(on, expr.Eq(expr.C("ls"), expr.C("rs"))), false},
		"semi-probe-left":       {scan(), r, expr.Eq(expr.C("st.k"), expr.C("rk")), true},
		"semi-hash-union":       {l, rl, on, true},
		"semi-probe-left-union": {scan(), rl, expr.Eq(expr.C("st.k"), expr.C("rk")), true},
		// The union as the filtered side, filtered branch by branch.
		"anti-hash-tower":        {rl, l, expr.And(on, expr.Eq(expr.C("ls"), expr.C("rs"))), false},
		"semi-probe-right-tower": {rl, scan(), expr.And(expr.Eq(expr.C("rk"), expr.C("st.k")), expr.Ne(expr.C("rs"), expr.C("st.s"))), true},
	}
	want := map[string]string{"join-hash": "joinHash", "join-hash-match": "joinHash", "join-probe": "joinProbeRight",
		"semi-hash": "semiHash", "anti-hash-2col": "semiHash", "semi-probe-left": "semiProbeLeft",
		"semi-hash-union": "semiHash", "semi-probe-left-union": "semiProbeLeft",
		"anti-hash-tower": "semiHash", "semi-probe-right-tower": "semiProbeRight"}
	plans := map[string]Node{
		"groupby":       NewGroupBy(l, []string{"lk"}, aggs),
		"groupby-2col":  NewGroupBy(l, []string{"ls", "lk"}, aggs[:6]),
		"groupby-union": NewGroupBy(unionTower(l, renameAs(r, l.Sch.Attrs)), []string{"lk"}, aggs),
		// σ and a computing π over the union, each part in its own rows.
		"select-tower": NewSelect(rl, expr.Or(expr.Lt(expr.C("rv"), expr.IntLit(40)), expr.Eq(expr.C("rs"), expr.StrLit("s1")))),
		"project-tower": NewProject(rl, []ProjItem{{E: expr.C("rk"), As: "k"}, {E: expr.IntLit(1), As: "one"},
			{E: expr.AddE(expr.Call("coalesce", expr.C("rv"), expr.IntLit(0)), expr.C("rk")), As: "x"}}),
	}
	for name, j := range joins {
		p, err := planJoin(j)
		if err != nil || joinStrategyNames[p.strategy] != want[name] {
			t.Fatalf("%s: strategy %v, %v; want %s", name, joinStrategyNames[p.strategy], err, want[name])
		}
		plans[name] = j
	}
	for name, s := range semis {
		sj := NewSemiJoin(s.l, s.r, s.pred)
		sj.Anti = !s.keep
		p, err := planSemi(sj)
		if err != nil || semiStrategyNames[p.strategy] != want[name] {
			t.Fatalf("%s: strategy %v, %v; want %s", name, semiStrategyNames[p.strategy], err, want[name])
		}
		plans[name] = sj
	}
	return plans
}

// renameAs presents n's attributes under names.
func renameAs(n Node, names []string) Node {
	items := make([]ProjItem, len(names))
	for i, a := range n.Schema().Attrs {
		items[i] = ProjItem{E: expr.C(a), As: names[i]}
	}
	return NewProject(n, items)
}

// scratchDB holds the stored side of the probe kernels: 2 000 rows whose k
// repeats, so a probe returns several.
func scratchDB() (*db.Database, rel.Schema) {
	d := db.New()
	sch := rel.NewSchema([]string{"id", "k", "s"}, []string{"id"})
	st := d.MustCreateTable("st", sch)
	for i := 0; i < 2000; i++ {
		st.MustInsert(rel.Int(int64(i)), rel.Int(int64(i%700)), rel.String(fmt.Sprintf("t%d", i%3)))
	}
	return d, sch
}

// TestWarmKernelsMatchFreshOnes runs one compiled plan per pooled kernel,
// warm, over a sequence of inputs — large, small, empty, large again with
// other contents — with every released scratch poisoned, once as built and
// once with the digests cut to two bits (every chain then mixes unequal keys
// and reaches entries an earlier call filed). Each run must return what a
// freshly compiled plan and the Eval oracle return, row for row, and charge
// what Eval charges.
func TestWarmKernelsMatchFreshOnes(t *testing.T) {
	poisonScratch(t)
	t.Cleanup(func() { keyMask = ^uint64(0) })
	d, st := scratchDB()
	plans := scratchPlans(t, st)
	inputs := []struct{ n, m, salt int }{{3000, 900, 0}, {16, 5, 1}, {0, 1, 0}, {3000, 1300, 2}, {40, 40, 3}}
	for _, mask := range []uint64{^uint64(0), 3} {
		keyMask = mask
		for name, plan := range plans {
			warm := MustCompile(plan)
			for _, in := range inputs {
				label := fmt.Sprintf("%s, mask %#x, %d rows (salt %d)", name, mask, in.n, in.salt)
				env := bindingEnv{Env: d, binds: map[string]*rel.Binding{
					"l": rel.BindRelation(scratchSide("l", in.n, in.m, in.salt)),
					"r": rel.BindRelation(scratchSide("r", in.n/2, in.m, in.salt+1)),
				}}
				d.Counter().Reset()
				want, err := Eval(plan, env)
				if err != nil {
					t.Fatalf("%s: eval: %v", label, err)
				}
				wantCost := *d.Counter()
				d.Counter().Reset()
				got, err := warm.Run(env)
				if err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				if cost := *d.Counter(); cost != wantCost {
					t.Fatalf("%s: warm plan charged %v, eval %v", label, cost, wantCost)
				}
				fresh, err := MustCompile(plan).Run(env)
				if err != nil {
					t.Fatalf("%s: fresh: %v", label, err)
				}
				sameRows(t, label+", warm", got, want)
				sameRows(t, label+", fresh", fresh, want)
				if in.n > 0 && want.Len() == 0 {
					t.Fatalf("%s: the oracle returns nothing; the input does not reach the kernel", label)
				}
			}
		}
	}
}

func sameRows(t *testing.T, label string, got, want *rel.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, the oracle has %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if rel.TupleKey(got.Tuples[i]) != rel.TupleKey(want.Tuples[i]) {
			t.Fatalf("%s: row %d is %v, the oracle has %v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// scratchHeld is the size of every buffer of a released scratch, the chains'
// unexported storage read by reflection.
func scratchHeld(s *kernelScratch) map[string]int {
	chains := reflect.ValueOf(&s.chains).Elem()
	return map[string]int{
		"digests":     cap(s.dig),
		"group ids":   cap(s.gid),
		"states":      cap(s.states),
		"builders":    cap(s.builders),
		"row":         cap(s.row),
		"first rows":  cap(s.first),
		"selection":   cap(s.sel),
		"part ends":   cap(s.ends),
		"chain links": chains.FieldByName("next").Cap(),
		"chain cells": chains.FieldByName("tab").FieldByName("cells").Len(),
	}
}

// scratchDirty names what a released scratch still holds: a filed chain
// entry, or a state, builder or value that is not zero.
func scratchDirty(s *kernelScratch) string {
	if n := reflect.ValueOf(&s.chains).Elem().FieldByName("tab").FieldByName("n").Int(); n != 0 {
		return fmt.Sprintf("%d digests filed in the chains", n)
	}
	for i, st := range s.states[:cap(s.states)] {
		if st != (aggState{}) {
			return fmt.Sprintf("state %d is %+v", i, st)
		}
	}
	for i, b := range s.builders[:cap(s.builders)] {
		if !reflect.ValueOf(b).IsZero() {
			return fmt.Sprintf("builder %d is not empty", i)
		}
	}
	for i, v := range s.row[:cap(s.row)] {
		if v != (rel.Value{}) {
			return fmt.Sprintf("row value %d is %v", i, v)
		}
	}
	return ""
}

// TestKernelScratchReleasesLargeBuffers is TestCompactorAndLogReleaseLargeBuffers
// for the kernel scratch: a 100 000-row γ, hash join and probe-left semijoin
// fill the pool's buffers, and 16-row runs of the same plans leave none of
// them above rel.Reuse's floor. Every released scratch holds no row data: no
// filed digest, aggregate state, builder or row value survives its call.
// The test runs on one P, so one scratch serves every call.
func TestKernelScratchReleasesLargeBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var last *kernelScratch
	scratchReleased = func(s *kernelScratch) {
		if what := scratchDirty(s); what != "" {
			t.Errorf("a released scratch is not empty: %s", what)
		}
		last = s
	}
	defer func() { scratchReleased = nil }()

	d, st := scratchDB()
	plans := scratchPlans(t, st)
	run := func(n int) {
		t.Helper()
		env := bindingEnv{Env: d, binds: map[string]*rel.Binding{
			"l": rel.BindRelation(scratchSide("l", n, max(n/10, 1), 0)),
			"r": rel.BindRelation(scratchSide("r", n, n, 1)),
		}}
		for _, name := range []string{"groupby", "join-hash", "semi-probe-left", "join-probe"} {
			if _, err := MustCompile(plans[name]).Bind(env); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "groupby" && n >= 100_000 {
				if held := scratchHeld(last); held["group ids"] < n || held["chain cells"] < n {
					t.Fatalf("the large γ kept no buffers: %v", held)
				}
			}
		}
	}
	const large = 100_000
	run(large)
	run(16)
	run(16)
	for name, n := range scratchHeld(last) {
		if n > 1<<10 { // rel.Reuse's floor
			t.Errorf("after two 16-row runs the scratch's %s still hold %d entries", name, n)
		}
	}
}

// poolDrops reports whether a sync.Pool on one P fails to hand back what was
// just put into it, as the race detector's drops a random quarter of it.
func poolDrops() bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() != x {
			return true
		}
	}
	return false
}

// TestWarmKernelAllocationsDoNotGrowWithRows: a warm γ and a warm hash
// semijoin work in pooled scratch, so at 16 and at 1 024 input rows they
// allocate only the batch they return and its binding. The γ's nine
// aggregates: its groups' first rows, the key columns gathered at them
// (batch, columns), the output (batch, columns), one payload per aggregate
// column and the binding — 15. The semijoin's: the selection, the gathered
// batch and its columns, the binding — 4.
func TestWarmKernelAllocationsDoNotGrowWithRows(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops what is put back at random (the race detector's pool does)")
	}
	d, st := scratchDB()
	plans := scratchPlans(t, st)
	for _, c := range []struct {
		plan   string
		allocs float64
	}{{"groupby", 15}, {"semi-hash", 4}} {
		warm := MustCompile(plans[c.plan])
		for _, n := range []int{16, 1024} {
			// Eight groups of int values, so the output has the same columns
			// at both sizes; the right side holds half of the eight keys.
			left, right := scratchSide("l", n, 8, 0), scratchSide("r", n/2, 8, 0)
			for i, row := range left.Tuples {
				row[2] = rel.Int(int64(i % 101))
			}
			for i, row := range right.Tuples {
				row[0] = rel.Int(int64(2 * (i % 4)))
			}
			env := &bindingEnv{Env: d, binds: map[string]*rel.Binding{
				"l": rel.BindBatch(rel.FromRelation(left)),
				"r": rel.BindBatch(rel.FromRelation(right)),
			}}
			runtime.GC()
			got := testing.AllocsPerRun(50, func() {
				if _, err := warm.Bind(env); err != nil {
					t.Fatal(err)
				}
			})
			if got != c.allocs {
				t.Errorf("%s over %d rows: %v allocations, want %v", c.plan, n, got, c.allocs)
			}
		}
	}
}

// TestKernelScratchConcurrentPlans runs every pooled kernel on four
// goroutines at once, each with plans of its own — as serving reads and a
// round's Workers do — over inputs of alternating size, with every released
// scratch poisoned: a scratch handed to two calls at once, or used after its
// release, shows as a wrong row (and, under -race, as a race).
func TestKernelScratchConcurrentPlans(t *testing.T) {
	poisonScratch(t)
	d, st := scratchDB()
	plans := scratchPlans(t, st)
	envs := make([]bindingEnv, 2)
	wants := make([]map[string]*rel.Relation, len(envs))
	for i, n := range []int{1500, 24} {
		// Uncharged, as serving reads are: the goroutines share no counter.
		envs[i] = bindingEnv{Env: db.Uncharged{Database: d}, binds: map[string]*rel.Binding{
			"l": rel.BindRelation(scratchSide("l", n, n/3+1, i)),
			"r": rel.BindRelation(scratchSide("r", n/2, n/3+1, i+1)),
		}}
		wants[i] = map[string]*rel.Relation{}
		for name, plan := range plans {
			want, err := Eval(plan, envs[i])
			if err != nil {
				t.Fatal(err)
			}
			wants[i][name] = want
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test goroutines sharing the kernel scratch pool
		go func(g int) {
			defer wg.Done()
			compiled := map[string]*ExecPlan{}
			for name, plan := range plans {
				compiled[name] = MustCompile(plan)
			}
			for i := 0; i < 10; i++ {
				k := (g + i) % len(envs)
				for name, p := range compiled {
					got, err := p.Run(envs[k])
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					want := wants[k][name]
					if got.Len() != want.Len() {
						t.Errorf("goroutine %d, %s: %d rows, the oracle has %d", g, name, got.Len(), want.Len())
						return
					}
					for r := range want.Tuples {
						if rel.TupleKey(got.Tuples[r]) != rel.TupleKey(want.Tuples[r]) {
							t.Errorf("goroutine %d, %s: row %d is %v, the oracle has %v", g, name, r, got.Tuples[r], want.Tuples[r])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
