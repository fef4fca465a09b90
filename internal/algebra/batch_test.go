package algebra_test

import (
	"fmt"
	"math"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// mixedKeys drives hash joins with repeats, misses, a NULL, and a kind
// mix (Int + Float with equal numeric value) so the batch key columns
// degrade to VecAny and the KeyEqual bucket verification is exercised.
func mixedKeys() *rel.Relation {
	sch := rel.NewSchema([]string{"jk"}, nil)
	r := rel.NewRelation(sch)
	for i := 0; i < 2000; i++ {
		switch {
		case i%503 == 0:
			r.Add(rel.Tuple{rel.Null()})
		case i%97 == 0:
			r.Add(rel.Tuple{rel.Float(float64((i * 3) % 3300))}) // KeyEqual to the Int key
		default:
			r.Add(rel.Tuple{rel.Int(int64((i * 3) % 3300))})
		}
	}
	return r
}

// batchPlans compiles a plan set covering every batch kernel: stored
// selects by scan (over typed and mixed-kind columns, with the literal on
// either side, conjunctions and a col-vs-col conjunct) and by index probe,
// aliased and computed projections, probe/hash joins with residuals,
// semi/anti joins, int-keyed and encoded-key aggregation, and union-all —
// tagged, and the untagged n-ary unions of towerPlans.
func batchPlans() map[string]algebra.Node {
	plans := kernelPlans()
	for name, p := range towerPlans() {
		plans[name] = p
	}
	return plans
}

// unionTower unites the branches as the γ rules do (unionPlans in
// internal/ivm): one untagged ∪all, or the one branch.
func unionTower(branches []algebra.Node) algebra.Node {
	if len(branches) == 1 {
		return branches[0]
	}
	return algebra.NewUnionAll("", branches...)
}

// towerPlans puts untagged unions ("towers") of one to five branches, some
// of them empty, under every kind of consumer: the root, γ (branches folded one
// after another, by a key whose groups start in one branch or in several),
// the key side of a hash antijoin and of a probe-left semijoin, a join's
// driving side, a renaming π that keeps a prefix and a computing π — and
// under a ∪all whose branch column a semijoin's residual reads. The towers
// are also the filtered side of ⋉ and ▷, which filter them branch by
// branch: hashing derived keys, probing a stored right side (with a
// residual), with an empty key side, over a tower of empty branches only,
// chained three deep as the γ rules' matched/unmatched streams are, as
// branches of a ∪all under γ, under σ and under a π with a literal — each
// read whole, by γ and by a join.
func towerPlans() map[string]algebra.Node {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	scan := func() *algebra.Scan { return algebra.NewScan("big", "", sch) }
	keys := func() algebra.Node { return algebra.NewRelRef("keys", rel.NewSchema([]string{"jk"}, nil)) }
	someKeys := func(lo, hi int64) algebra.Node {
		return algebra.NewSelect(keys(), expr.And(expr.Ge(expr.C("jk"), expr.IntLit(lo)), expr.Lt(expr.C("jk"), expr.IntLit(hi))))
	}
	branches := func(n, salt int, empty func(i int) bool) algebra.Node {
		bs := make([]algebra.Node, n)
		for i := range bs {
			g := int64((3*i + salt) % 13)
			if empty(i) {
				g = 99 // no row has it: an empty branch
			}
			bs[i] = algebra.NewSelect(scan(), expr.Eq(expr.C("big.grp"), expr.IntLit(g)))
		}
		return unionTower(bs)
	}
	tower := func(n, salt int) algebra.Node {
		return branches(n, salt, func(i int) bool { return (i+n+salt)%3 == 0 })
	}
	onK := expr.Eq(expr.C("big.k"), expr.C("jk"))
	anti := func(l algebra.Node, lo, hi int64) algebra.Node { return algebra.NewAntiJoin(l, someKeys(lo, hi), onK) }
	stored := scan().Renamed("@r")
	aggs := []algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"}, {Fn: algebra.AggCount, As: "n"}}
	byGrp := func(l algebra.Node) algebra.Node { return algebra.NewGroupBy(l, []string{"big.grp"}, aggs) }
	plans := map[string]algebra.Node{}
	for n := 1; n <= 5; n++ {
		chain := anti(anti(anti(tower(n, 0), 0, 900), 1500, 2400), 2700, 3300)
		withOne := algebra.NewProject(anti(tower(n, 1), 0, 1800), []algebra.ProjItem{
			{E: expr.C("big.grp"), As: "g"}, {E: expr.IntLit(-1), As: "one"}, {E: expr.C("big.val"), As: "v"}})
		for name, p := range map[string]algebra.Node{
			"-semi-hash":  algebra.NewSemiJoin(tower(n, 0), keys(), onK),
			"-anti-hash":  algebra.NewAntiJoin(tower(n, 1), keys(), onK),
			"-anti-empty": anti(branches(n, 2, func(int) bool { return true }), 0, 3300),
			"-anti-nokeys": algebra.NewAntiJoin(tower(n, 2), algebra.NewSelect(keys(), expr.Eq(expr.C("jk"), expr.IntLit(-7))),
				onK),
			"-semi-probe": algebra.NewSemiJoin(tower(n, 0), stored, expr.And(
				expr.Eq(expr.C("big.val"), expr.C("big.k@r")), expr.Lt(expr.C("big.grp"), expr.C("big.grp@r")))),
			"-anti-probe": algebra.NewAntiJoin(tower(n, 1), stored, expr.Eq(expr.C("big.val"), expr.C("big.k@r"))),
			// θ-semijoins over a stored right side, one of whose rows the σ
			// keeps and none: a nested loop over the right side's rows.
			"-semi-theta": algebra.NewSemiJoin(tower(n, 0), algebra.NewSelect(scan().Renamed("@r"),
				expr.Eq(expr.C("big.k@r"), expr.IntLit(5))), expr.Lt(expr.C("big.val"), expr.C("big.grp@r"))),
			"-semi-theta-none": algebra.NewSemiJoin(tower(n, 0), algebra.NewSelect(scan().Renamed("@r"),
				expr.Eq(expr.C("big.k@r"), expr.IntLit(-1))), expr.Lt(expr.C("big.val"), expr.C("big.grp@r"))),
			"-anti-chain":         chain,
			"-groupby-anti-chain": byGrp(chain),
			"-join-anti-chain":    algebra.NewJoin(chain, stored, expr.Eq(expr.C("big.val"), expr.C("big.k@r"))),
			"-groupby-semi-anti": byGrp(unionTower([]algebra.Node{
				algebra.NewSemiJoin(tower(n, 0), someKeys(0, 1600), onK), anti(tower(n, 1), 0, 1600),
				algebra.NewAntiJoin(tower(n, 2), stored, expr.Eq(expr.C("big.val"), expr.C("big.k@r")))})),
			"-select":         algebra.NewSelect(anti(tower(n, 2), 0, 1200), expr.Gt(expr.C("big.val"), expr.IntLit(40))),
			"-groupby-select": byGrp(algebra.NewSelect(tower(n, 0), expr.Lt(expr.C("big.val"), expr.C("big.grp")))),
			// The first branch (grp 0) kept whole, the second (grp 3) narrowed.
			"-select-after-whole": algebra.NewSelect(tower(n, 0),
				expr.Or(expr.Ne(expr.C("big.grp"), expr.IntLit(3)), expr.Lt(expr.C("big.k"), expr.IntLit(1500)))),
			"-project-lit": withOne,
			"-groupby-project-lit": algebra.NewGroupBy(withOne, []string{"g"}, []algebra.Agg{
				{Fn: algebra.AggSum, Arg: expr.C("one"), As: "s"}, {Fn: algebra.AggSum, Arg: expr.C("v"), As: "sv"}}),
			"-semi-tagged-keys": algebra.NewSemiJoin(algebra.NewProject(tower(n, 1), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "a"}, {E: expr.C("big.val"), As: "v"}}),
				algebra.NewUnionAll("isAdd", tower(n, 0), tower(6-n, 1)),
				expr.And(expr.Eq(expr.C("a"), expr.C("big.val")), expr.Eq(expr.C("isAdd"), expr.IntLit(0)))),
		} {
			plans[fmt.Sprintf("tower%d%s", n, name)] = p
		}
		for name, p := range map[string]algebra.Node{
			"":               tower(n, 0),
			"-groupby":       algebra.NewGroupBy(tower(n, 0), []string{"big.grp"}, aggs),
			"-groupby-mixed": algebra.NewGroupBy(tower(n, 1), []string{"big.val"}, aggs[1:]),
			"-anti":          algebra.NewAntiJoin(keys(), tower(n, 0), expr.Eq(expr.C("jk"), expr.C("big.k"))),
			"-semi-probe-left": algebra.NewSemiJoin(scan().Renamed("@s"), tower(n, 2),
				expr.Eq(expr.C("big.k@s"), expr.C("big.k"))),
			"-join": algebra.NewJoin(tower(n, 1), scan().Renamed("@r"),
				expr.Eq(expr.C("big.val"), expr.C("big.k@r"))),
			"-rename": algebra.NewProject(tower(n, 0), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "a"}, {E: expr.C("big.grp"), As: "b"}}),
			"-project": algebra.NewProject(tower(n, 0), []algebra.ProjItem{
				{E: expr.C("big.val"), As: "v"}, {E: expr.AddE(expr.C("big.k"), expr.IntLit(1)), As: "k1"}}),
			"-branch": algebra.NewUnionAll("isAdd", tower(n, 0), tower(6-n, 1)),
			"-semi-branch": algebra.NewSemiJoin(keys(), algebra.NewUnionAll("isAdd", tower(n, 0), tower(6-n, 1)),
				expr.And(expr.Eq(expr.C("jk"), expr.C("big.k")), expr.Eq(expr.C("isAdd"), expr.IntLit(1)))),
		} {
			plans[fmt.Sprintf("tower%d%s", n, name)] = p
		}
	}
	return plans
}

// kernelPlans are batchPlans' one or two plans per kernel.
func kernelPlans() map[string]algebra.Node {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	scan := func() algebra.Node { return algebra.NewScan("big", "", sch) }
	keySch := rel.NewSchema([]string{"jk"}, nil)
	keys := func() algebra.Node { return algebra.NewRelRef("keys", keySch) }

	return map[string]algebra.Node{
		"scan": scan(),
		"filter-int": algebra.NewSelect(scan(),
			expr.Lt(expr.C("big.grp"), expr.IntLit(7))),
		"filter-flip": algebra.NewSelect(scan(), // literal on the left
			expr.Ge(expr.IntLit(7), expr.C("big.grp"))),
		"filter-mixed-col": algebra.NewSelect(scan(), // val holds Int/Float/NULL: a VecAny column
			expr.Gt(expr.C("big.val"), expr.FloatLit(40))),
		"filter-conj": algebra.NewSelect(scan(),
			expr.And(
				expr.Lt(expr.C("big.grp"), expr.IntLit(11)),
				expr.Ne(expr.C("big.grp"), expr.IntLit(3)),
				expr.Gt(expr.C("big.k"), expr.IntLit(100)))),
		"filter-rest": algebra.NewSelect(scan(), // a col-vs-col conjunct
			expr.And(
				expr.Lt(expr.C("big.grp"), expr.IntLit(9)),
				expr.Lt(expr.C("big.grp"), expr.C("big.k")))),
		"probe-select": algebra.NewSelect(scan(), // index probe path
			expr.Eq(expr.C("big.k"), expr.IntLit(42))),
		"probe-project": algebra.NewProject( // a keyed read: Run builds tuples from the probed rows
			algebra.NewSelect(scan(), expr.Eq(expr.C("big.k"), expr.IntLit(42))),
			[]algebra.ProjItem{{E: expr.C("big.val"), As: "v"}, {E: expr.C("big.k"), As: "k"}}),
		"filter-project": algebra.NewProject( // the same from a scan's kept rows
			algebra.NewSelect(scan(), expr.Lt(expr.C("big.grp"), expr.IntLit(3))),
			[]algebra.ProjItem{{E: expr.C("big.k"), As: "k"}, {E: expr.C("big.val"), As: "v"}}),
		"project": algebra.NewProject(scan(), []algebra.ProjItem{
			{E: expr.C("big.grp"), As: "g"},
			{E: expr.AddE(expr.C("big.k"), expr.IntLit(1)), As: "k1"},
			{E: expr.C("big.val"), As: "v"},
		}),
		"join-probe": algebra.NewJoin(keys(), scan(),
			expr.Eq(expr.C("jk"), expr.C("big.k"))),
		"join-probe-residual": algebra.NewJoin(keys(), scan(),
			expr.And(
				expr.Eq(expr.C("jk"), expr.C("big.k")),
				expr.Lt(expr.C("big.grp"), expr.IntLit(10)))),
		"join-hash": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.val"), As: "hv"},
			}),
			expr.Eq(expr.C("jk"), expr.C("hk"))),
		"join-hash-residual": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.grp"), As: "hg"},
			}),
			expr.And(
				expr.Eq(expr.C("jk"), expr.C("hk")),
				expr.Ne(expr.C("hg"), expr.IntLit(5)))),
		"semi": algebra.NewSemiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"anti": algebra.NewAntiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"semi-derived": algebra.NewSemiJoin(
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "dk"},
				{E: expr.C("big.val"), As: "dv"},
			}),
			keys(),
			expr.Eq(expr.C("dk"), expr.C("jk"))),
		"groupby-int": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"},
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggAvg, Arg: expr.C("big.val"), As: "a"},
		}),
		"groupby-mixed-key": algebra.NewGroupBy(scan(), []string{"big.val"}, []algebra.Agg{
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggMax, Arg: expr.C("big.k"), As: "m"},
		}),
		"groupby-expr-arg": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.MulE(expr.C("big.k"), expr.IntLit(2)), As: "s2"},
		}),
		"union": algebra.NewUnionAll("branch",
			algebra.NewSelect(scan(), expr.Lt(expr.C("big.grp"), expr.IntLit(4))),
			algebra.NewSelect(scan(), expr.Ge(expr.C("big.grp"), expr.IntLit(11)))),
	}
}

// TestBatchMatchesTupleMode runs every plan through the interpreted
// evaluator (the oracle) and through the compiled plan, on mem and sharded
// backends: rows must match in exact order and the access counters must be
// byte-identical — the columnar kernels are invisible to the cost model.
func TestBatchMatchesTupleMode(t *testing.T) {
	plans := batchPlans()
	engines := map[string]func() storage.Engine{
		"mem":      storage.NewMem,
		"sharded8": func() storage.Engine { return storagetest.Sharded(8) },
	}
	for engName, mk := range engines {
		t.Run(engName, func(t *testing.T) {
			d := bigDB(t, mk())
			base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": mixedKeys()}}
			for name, plan := range plans {
				t.Run(name, func(t *testing.T) { checkAgainstEval(t, d, base, plan) })
			}
		})
	}
}

// TestBatchReuseAcrossRuns re-runs one compiled plan: a compiled plan owns
// scratch, so any of it leaking between runs shows up as drift from the
// interpreted result.
func TestBatchReuseAcrossRuns(t *testing.T) {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	plan := algebra.NewGroupBy(
		algebra.NewJoin(algebra.NewRelRef("keys", rel.NewSchema([]string{"jk"}, nil)),
			algebra.NewScan("big", "", sch),
			expr.Eq(expr.C("jk"), expr.C("big.k"))),
		[]string{"big.grp"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"}})
	compiled, err := algebra.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	d := bigDB(t, storagetest.Sharded(4))
	base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": mixedKeys()}}
	ref, err := algebra.Eval(plan, base)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 6; run++ {
		got, err := compiled.Run(base)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		sameOrderedRelation(t, fmt.Sprintf("run %d", run), ref, got)
	}
}

// TestKeyEqualityAtTheEdgesOfSame runs the kernels that match rows by key
// digest — hash join, hash semijoin/antijoin, γ, and the two sets of the
// semijoin that probes a stored left — over key columns holding the values
// on which Same and the EncodeKey bytes the oracle buckets by disagree or
// nearly do: 2^53 and 2^53+1 (Same, different keys), Float(2^53) (KeyEqual to
// the first only), NaN (Same as every number, a key of its own), -0.0 and 0
// (one key) and NULL. The "ints" column stays a uniform VecInt, which
// Batch.KeyDigestsInto folds without boxing. The -2col plans key on two such
// columns: rows that agree on one of them only must not meet.
func TestKeyEqualityAtTheEdgesOfSame(t *testing.T) {
	const p53 = int64(1) << 53
	keySets := map[string][]rel.Value{
		"mixed": {rel.Int(p53), rel.Int(p53 + 1), rel.Float(float64(p53)), rel.Float(math.NaN()),
			rel.Float(math.Copysign(0, -1)), rel.Int(0), rel.Null(), rel.Float(5)},
		"ints": {rel.Int(p53), rel.Int(p53 + 1), rel.Int(0), rel.Null(), rel.Int(p53 + 1)},
	}
	// The second key column of row i is the edge value two places on, so
	// each first-column key meets several second-column partners.
	side := func(name string, keys []rel.Value) *rel.Relation {
		r := rel.NewRelation(rel.NewSchema([]string{name + "k", name + "v", name + "k2"}, nil))
		for i, k := range keys {
			r.Add(rel.Tuple{k, rel.Int(int64(i)), keys[(i+2)%len(keys)]})
		}
		return r
	}
	l := func() algebra.Node { return algebra.NewRelRef("l", rel.NewSchema([]string{"lk", "lv", "lk2"}, nil)) }
	r := func() algebra.Node { return algebra.NewRelRef("r", rel.NewSchema([]string{"rk", "rv", "rk2"}, nil)) }
	on := expr.Eq(expr.C("lk"), expr.C("rk"))
	on2 := expr.And(on, expr.Eq(expr.C("lk2"), expr.C("rk2")))
	aggs := []algebra.Agg{{Fn: algebra.AggCount, As: "n"}, {Fn: algebra.AggSum, Arg: expr.C("lv"), As: "s"}}
	stSchema := rel.NewSchema([]string{"id", "k", "k2"}, []string{"id"})
	st := func() algebra.Node { return algebra.NewScan("st", "", stSchema) }
	plans := map[string]algebra.Node{
		"join-hash":      algebra.NewJoin(l(), r(), on),
		"semi-hash":      algebra.NewSemiJoin(l(), r(), on),
		"anti-hash":      algebra.NewAntiJoin(l(), r(), on),
		"groupby":        algebra.NewGroupBy(l(), []string{"lk"}, aggs),
		"join-hash-2col": algebra.NewJoin(l(), r(), on2),
		"semi-hash-2col": algebra.NewSemiJoin(l(), r(), on2),
		"anti-hash-2col": algebra.NewAntiJoin(l(), r(), on2),
		"groupby-2col":   algebra.NewGroupBy(l(), []string{"lk", "lk2"}, aggs),
		"semi-probe-l":   algebra.NewSemiJoin(st(), r(), expr.Eq(expr.C("st.k"), expr.C("rk"))),
		"semi-probe-l-2col": algebra.NewSemiJoin(st(), r(),
			expr.And(expr.Eq(expr.C("st.k"), expr.C("rk")), expr.Eq(expr.C("st.k2"), expr.C("rk2")))),
	}
	for setName, keys := range keySets {
		rev := append([]rel.Value(nil), keys...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		// The stored left of the probing semijoin: every key twice, once
		// with the second column of side() and once with another.
		d := db.New()
		stored := d.MustCreateTable("st", stSchema)
		for i, k := range keys {
			stored.MustInsert(rel.Int(int64(2*i)), k, keys[(i+2)%len(keys)])
			stored.MustInsert(rel.Int(int64(2*i+1)), k, keys[(i+3)%len(keys)])
		}
		env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"l": side("l", keys), "r": side("r", rev)}}
		for name, plan := range plans {
			t.Run(setName+"/"+name, func(t *testing.T) { checkAgainstEval(t, d, env, plan) })
		}
	}
}

// TestFilterKernelsOnEveryLayout runs a comparison against a literal over a
// derived column of every layout — int, float, string and bool, each with
// NULL rows, and a mixed column — for every operator and literals of
// matching and mismatching kinds, alone and behind another conjunct, and
// checks the compiled σ (expr's closures over rows read from the columns)
// against the Eval oracle: each layout's Batch.Row must hand the predicate
// the values the oracle's tuples hold.
func TestFilterKernelsOnEveryLayout(t *testing.T) {
	cols := []string{"id", "i", "f", "s", "b", "m"}
	sch := rel.NewSchema(cols, nil)
	typed := rel.NewRelation(sch)
	for r := 0; r < 40; r++ {
		row := rel.Tuple{rel.Int(int64(r)), rel.Int(int64(r%7 - 3)), rel.Float(float64(r%9)/2 - 1.5),
			rel.String(string(rune('j' + r%6))), rel.Bool(r%3 == 0), rel.Null()}
		switch r % 4 {
		case 1:
			row[5] = rel.Int(int64(r % 5))
		case 2:
			row[5] = rel.Float(2.5)
		case 3:
			row[5] = rel.String("m")
		}
		if r%5 == 4 {
			row[1], row[2], row[3], row[4] = rel.Null(), rel.Null(), rel.Null(), rel.Null()
		}
		typed.Add(row)
	}
	d := db.New()
	env := &bindEnv{Database: d, rels: map[string]*rel.Relation{"typed": typed}}
	lits := []expr.Lit{expr.IntLit(2), expr.FloatLit(-0.5), expr.FloatLit(math.NaN()), expr.StrLit("m"),
		{Val: rel.Bool(true)}, {Val: rel.Bool(false)}}
	ops := []func(l, r expr.Expr) expr.Cmp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
	for _, col := range cols[1:] {
		for li, lit := range lits {
			for oi, op := range ops {
				cmp := op(expr.C(col), lit)
				plans := map[string]algebra.Node{
					"first":  algebra.NewSelect(algebra.NewRelRef("typed", sch), cmp),
					"second": algebra.NewSelect(algebra.NewRelRef("typed", sch), expr.And(expr.Ge(expr.C("id"), expr.IntLit(1)), cmp)),
				}
				for pos, plan := range plans {
					t.Run(fmt.Sprintf("%s/lit%d/op%d/%s", col, li, oi, pos), func(t *testing.T) {
						checkAgainstEval(t, d, env, plan)
					})
				}
			}
		}
	}
}
