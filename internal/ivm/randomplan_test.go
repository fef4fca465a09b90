package ivm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// planGen builds random-but-valid QSPJADU plans over the running-example
// schema: left-deep join chains over random table subsets, optional
// selections, an optional antisemijoin, and an optional aggregation. With
// aggMix the aggregation is always there, carries one to three aggregates
// of every class, and may group by an updatable attribute.
type planGen struct {
	rng    *rand.Rand
	d      *db.Database
	alias  int
	aggMix bool
}

func (g *planGen) scan(table string) *algebra.Scan {
	g.alias++
	tb, _ := g.d.Table(table)
	return algebra.NewScan(table, fmt.Sprintf("s%d_%s", g.alias, table), tb.Schema())
}

// joinable returns the qualified column pairs with equal bare names across
// the two subplans (pid/did equijoin candidates).
func joinable(l, r algebra.Node) [][2]string {
	var out [][2]string
	for _, la := range l.Schema().Attrs {
		_, lb := rel.BaseAttr(la)
		if lb != "pid" && lb != "did" {
			continue
		}
		for _, ra := range r.Schema().Attrs {
			_, rb := rel.BaseAttr(ra)
			if rb == lb {
				out = append(out, [2]string{la, ra})
			}
		}
	}
	return out
}

func (g *planGen) maybeSelect(n algebra.Node) algebra.Node {
	if g.rng.Intn(3) != 0 {
		return n
	}
	sch := n.Schema()
	var candidates []expr.Expr
	for _, a := range sch.Attrs {
		_, bare := rel.BaseAttr(a)
		switch bare {
		case "price":
			candidates = append(candidates,
				expr.Gt(expr.C(a), expr.IntLit(int64(5+g.rng.Intn(40)))))
		case "category":
			candidates = append(candidates,
				expr.Eq(expr.C(a), expr.StrLit([]string{"phone", "tablet"}[g.rng.Intn(2)])))
		}
	}
	if len(candidates) == 0 {
		return n
	}
	return algebra.NewSelect(n, candidates[g.rng.Intn(len(candidates))])
}

func (g *planGen) gen() algebra.Node {
	tables := []string{"parts", "devices", "devices_parts"}
	// Start from devices_parts often so joins connect.
	var plan algebra.Node = g.scan(tables[g.rng.Intn(len(tables))])
	plan = g.maybeSelect(plan)

	nJoins := g.rng.Intn(3)
	for i := 0; i < nJoins; i++ {
		next := algebra.Node(g.scan(tables[g.rng.Intn(len(tables))]))
		next = g.maybeSelect(next)
		pairs := joinable(plan, next)
		if len(pairs) == 0 {
			continue
		}
		p := pairs[g.rng.Intn(len(pairs))]
		plan = algebra.NewJoin(plan, next, expr.Eq(expr.C(p[0]), expr.C(p[1])))
	}

	// Optional antisemijoin against a fresh scan.
	if g.rng.Intn(4) == 0 {
		right := algebra.Node(g.scan(tables[g.rng.Intn(len(tables))]))
		right = g.maybeSelect(right)
		if pairs := joinable(plan, right); len(pairs) > 0 {
			p := pairs[g.rng.Intn(len(pairs))]
			plan = algebra.NewAntiJoin(plan, right, expr.Eq(expr.C(p[0]), expr.C(p[1])))
		}
	}

	// Optional aggregation over a did/pid column.
	if g.aggMix || g.rng.Intn(3) == 0 {
		sch := plan.Schema()
		var keys []string
		var priceCol string
		for _, a := range sch.Attrs {
			_, bare := rel.BaseAttr(a)
			if bare == "did" || bare == "pid" || (g.aggMix && bare == "category") {
				keys = append(keys, a)
			}
			if bare == "price" && priceCol == "" {
				priceCol = a
			}
		}
		if len(keys) > 0 {
			key := keys[g.rng.Intn(len(keys))]
			aggs := []algebra.Agg{{Fn: algebra.AggCount, As: "cnt"}}
			if g.aggMix {
				aggs = g.mixedAggs(priceCol)
			} else if priceCol != "" {
				fns := []algebra.AggFn{algebra.AggSum, algebra.AggMin, algebra.AggMax, algebra.AggAvg}
				fn := fns[g.rng.Intn(len(fns))]
				aggs = append(aggs, algebra.Agg{Fn: fn, Arg: expr.C(priceCol), As: "agg"})
			}
			plan = algebra.NewGroupBy(plan, []string{key}, aggs)
		}
	}
	return plan
}

// mixedAggs draws one to three aggregates over col from every class the γ
// rules and the normalisation step know: SUM, COUNT(x), COUNT(*), AVG, MIN,
// MAX. SUM reads coalesce(col, 0): a SUM whose group has no non-NULL
// argument left is an open bug of the incremental rule (ROADMAP item 3),
// older than the rewrite this generator checks.
func (g *planGen) mixedAggs(col string) []algebra.Agg {
	if col == "" {
		return []algebra.Agg{{Fn: algebra.AggCount, As: "cnt"}}
	}
	arg := expr.C(col)
	classes := []algebra.Agg{
		{Fn: algebra.AggSum, Arg: expr.Call("coalesce", arg, expr.IntLit(0))},
		{Fn: algebra.AggCount, Arg: arg},
		{Fn: algebra.AggCount},
		{Fn: algebra.AggAvg, Arg: arg},
		{Fn: algebra.AggMin, Arg: arg},
		{Fn: algebra.AggMax, Arg: arg},
	}
	var aggs []algebra.Agg
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		a := classes[g.rng.Intn(len(classes))]
		a.As = fmt.Sprintf("a%d", i)
		aggs = append(aggs, a)
	}
	return aggs
}

// nullableMods is randomMods plus what the aggregate classes differ on:
// NULL prices arriving and leaving, and a device losing every part (its
// group dies and may be born again later).
func nullableMods(d *db.Database, rng *rand.Rand, nextPart *int) {
	if k := randomKey(d, "parts", rng); k != nil {
		price := rel.Null()
		if rng.Intn(2) == 0 {
			price = rel.Int(int64(1 + rng.Intn(60)))
		}
		_, _ = d.Update("parts", k, []string{"price"}, []rel.Value{price})
	}
	if did := randomKey(d, "devices", rng); did != nil {
		if rng.Intn(3) == 0 {
			dp, _ := d.Table("devices_parts")
			rows, _ := dp.Lookup(rel.StatePost, []string{"did"}, did)
			for _, r := range rows {
				_, _ = d.Delete("devices_parts", []rel.Value{r[0], r[1]})
			}
		} else {
			id := rel.String(partID(*nextPart))
			*nextPart++
			_ = d.Insert("parts", rel.Tuple{id, rel.Null()})
			_ = d.Insert("devices_parts", rel.Tuple{did[0], id})
		}
	}
	randomMods(d, rng, nextPart)
}

// randomMods applies a small batch of random valid modifications.
func randomMods(d *db.Database, rng *rand.Rand, nextPart *int) {
	categories := []string{"phone", "tablet"}
	for i := 0; i < 1+rng.Intn(4); i++ {
		switch rng.Intn(6) {
		case 0:
			id := rel.String(partID(*nextPart))
			*nextPart++
			_ = d.Insert("parts", rel.Tuple{id, rel.Int(int64(1 + rng.Intn(60)))})
		case 1:
			if k := randomKey(d, "parts", rng); k != nil {
				_, _ = d.Update("parts", k, []string{"price"}, []rel.Value{rel.Int(int64(1 + rng.Intn(60)))})
			}
		case 2:
			if k := randomKey(d, "devices", rng); k != nil {
				_, _ = d.Update("devices", k, []string{"category"},
					[]rel.Value{rel.String(categories[rng.Intn(2)])})
			}
		case 3:
			pid := randomKey(d, "parts", rng)
			did := randomKey(d, "devices", rng)
			if pid != nil && did != nil {
				_ = d.Insert("devices_parts", rel.Tuple{did[0], pid[0]})
			}
		case 4:
			if k := randomKey(d, "devices_parts", rng); k != nil {
				_, _ = d.Delete("devices_parts", k)
			}
		case 5:
			if k := randomKey(d, "parts", rng); k != nil {
				dp, _ := d.Table("devices_parts")
				if rows, _ := dp.Lookup(rel.StatePost, []string{"pid"}, []rel.Value{k[0]}); len(rows) == 0 {
					_, _ = d.Delete("parts", k)
				}
			}
		}
	}
}

// Every random plan's Δ-script must pass the static verifier in all four
// mode combinations (id/tuple × minimized/raw) — RegisterView itself only
// exercises the minimized variants, so the raw ones are generated here.
func TestRandomPlanScriptsVerify(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		d := fig2DB(t)
		g := &planGen{rng: rng, d: d}
		plan := g.gen()
		schemaOf := func(tb string) (rel.Schema, error) {
			tab, err := d.Table(tb)
			if err != nil {
				return rel.Schema{}, err
			}
			return tab.Schema(), nil
		}
		base, err := ivm.GenerateBaseDiffSchemas(plan, schemaOf)
		if err != nil {
			t.Fatalf("trial %d: schemas: %v\nplan: %s", trial, err, plan)
		}
		for _, tuple := range []bool{false, true} {
			for _, noMin := range []bool{false, true} {
				s, err := ivm.Generate("V", plan, base, tuple, ivm.GenOptions{NoMinimize: noMin})
				if err != nil {
					t.Fatalf("trial %d tuple=%v noMin=%v: generate: %v\nplan: %s",
						trial, tuple, noMin, err, plan)
				}
				if err := ivm.Verify(s); err != nil {
					t.Fatalf("trial %d tuple=%v noMin=%v: %v\nplan: %s\nscript:\n%s",
						trial, tuple, noMin, err, plan, s)
				}
			}
		}
	}
}

// Property: for RANDOM plans and random modification batches, incremental
// maintenance equals recomputation, in both modes, with effectiveness
// self-checking on. This is the broadest rule-combination net in the
// suite; a failing seed prints the plan for reproduction.
func TestRandomPlansMaintainCorrectly(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 10
	}
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				d := fig2DB(t)
				g := &planGen{rng: rng, d: d}
				plan := g.gen()

				s := ivm.NewSystem(d)
				s.SelfCheck = true
				if _, err := s.RegisterView("V", plan, mode); err != nil {
					t.Fatalf("trial %d: register %s: %v\nplan: %s", trial, mode, err, plan)
				}
				nextPart := 50
				for round := 0; round < 5; round++ {
					randomMods(d, rng, &nextPart)
					if _, err := s.MaintainAll(); err != nil {
						t.Fatalf("trial %d round %d (%s): %v\nplan: %s", trial, round, mode, err, plan)
					}
					if err := s.CheckConsistent("V"); err != nil {
						t.Fatalf("trial %d round %d (%s): %v\nplan: %s", trial, round, mode, err, plan)
					}
				}
			}
		})
	}
}

// The γ rules only know SUM and COUNT; AVG and MIN/MAX reach them as plan
// rewrites (normalizeAggs). This is the check of the rewrites against the
// plan as written: random γ plans mixing every aggregate class, over NULL
// arguments and groups that die and come back, in both modes, with and
// without caches, on both engines — and after every round the stored view
// must equal algebra.Eval of the plan the test built, which no part of
// script generation has touched.
func TestRandomAggregatePlansMatchWrittenPlan(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 5
	}
	engines := []struct {
		name string
		mk   func() storage.Engine
	}{{"mem", storage.NewMem}, {"sharded4", func() storage.Engine { return storagetest.Sharded(4) }}}
	for _, eng := range engines {
		for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
			for _, noCache := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/nocache=%v", eng.name, mode, noCache), func(t *testing.T) {
					for trial := 0; trial < trials; trial++ {
						rng := rand.New(rand.NewSource(int64(7000 + trial)))
						d := fig2DBOn(t, eng.mk())
						plan := (&planGen{rng: rng, d: d, aggMix: true}).gen()
						if _, ok := plan.(*algebra.GroupBy); !ok {
							continue // no did/pid/category column to group by
						}
						s := ivm.NewSystem(d)
						if _, err := s.RegisterView("V", plan, mode, ivm.GenOptions{NoCache: noCache}); err != nil {
							t.Fatalf("trial %d: register: %v\nplan: %s", trial, err, plan)
						}
						nextPart := 50
						for round := 0; round < 6; round++ {
							nullableMods(d, rng, &nextPart)
							if _, err := s.MaintainAll(); err != nil {
								t.Fatalf("trial %d round %d: %v\nplan: %s", trial, round, err, plan)
							}
							sameAsWritten(t, d, "V", plan, fmt.Sprintf("trial %d round %d", trial, round))
						}
					}
				})
			}
		}
	}
}

// sameAsWritten compares a stored view with the interpreted evaluation of
// the plan as the caller wrote it.
func sameAsWritten(t *testing.T, d *db.Database, view string, plan algebra.Node, at string) {
	t.Helper()
	want, err := algebra.Eval(plan, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := viewState(t, d, view); !got.EqualSet(want) {
		t.Fatalf("%s: stored view differs from the written plan\n got %v\nwant %v\nplan: %s",
			at, got.Sorted(), want.Sorted(), plan)
	}
}

// Two scripted rounds on the derived aggregates. An AVG view over a cached
// join dispatches like the SUM it is rewritten to: one round moves a tuple
// to another group while a value update hits a third tuple, and the move
// folds into ΔG — its script has no ΔK. A MIN/MAX view that loses
// every tuple holding a group's minimum reads that group's distinct values
// from the multiset cache, not its 120 tuples.
func TestDerivedAggregateRounds(t *testing.T) {
	t.Run("avg: key move beside value update", func(t *testing.T) {
		d := db.New()
		items := d.MustCreateTable("items", rel.NewSchema([]string{"id", "grp", "val"}, []string{"id"}))
		owners := d.MustCreateTable("owners", rel.NewSchema([]string{"id", "name"}, []string{"id"}))
		for i := 0; i < 12; i++ {
			items.MustInsert(rel.Int(int64(i)), rel.Int(int64(i%3)), rel.Int(int64(10*i)))
			owners.MustInsert(rel.Int(int64(i)), rel.String("o"))
		}
		plan := algebra.NewGroupBy(
			algebra.NewJoin(algebra.NewScan("items", "", items.Schema()), algebra.NewScan("owners", "", owners.Schema()),
				expr.Eq(expr.C("items.id"), expr.C("owners.id"))),
			[]string{"items.grp"},
			[]algebra.Agg{{Fn: algebra.AggAvg, Arg: expr.C("items.val"), As: "mean"}, {Fn: algebra.AggCount, As: "n"}})
		s := ivm.NewSystem(d)
		script := register(t, s, "V", plan, ivm.ModeID).Script.String()
		for _, step := range []string{"ΔG", "mean#sum", "mean#cnt"} {
			if !strings.Contains(script, step) {
				t.Fatalf("script lacks %s:\n%s", step, script)
			}
		}
		if strings.Contains(script, "ΔK") {
			t.Fatalf("a move recomputes its groups:\n%s", script)
		}
		mustUpdate(t, d, "items", []rel.Value{rel.Int(4)}, []string{"grp"}, []rel.Value{rel.Int(7)}) // new group
		mustUpdate(t, d, "items", []rel.Value{rel.Int(5)}, []string{"val"}, []rel.Value{rel.Null()})
		mustUpdate(t, d, "items", []rel.Value{rel.Int(0)}, []string{"val"}, []rel.Value{rel.Int(99)})
		maintainAndCheck(t, s)
		sameAsWritten(t, d, "V", plan, "move + value update")
		for _, id := range []int64{2, 8, 11} { // group 2 keeps only its NULL
			if _, err := d.Delete("items", []rel.Value{rel.Int(id)}); err != nil {
				t.Fatal(err)
			}
		}
		mustUpdate(t, d, "items", []rel.Value{rel.Int(4)}, []string{"grp"}, []rel.Value{rel.Int(1)}) // group 7 dies
		maintainAndCheck(t, s)
		sameAsWritten(t, d, "V", plan, "all-NULL group")
		mustUpdate(t, d, "items", []rel.Value{rel.Int(5)}, []string{"val"}, []rel.Value{rel.Int(50)})
		maintainAndCheck(t, s)
		sameAsWritten(t, d, "V", plan, "NULL mean becomes a number")
	})
	t.Run("min/max: delete the minimum", func(t *testing.T) {
		d := minMaxItemsDB(t, storage.NewMem())
		plan := minMaxItemsPlan(d)
		s := ivm.NewSystem(d)
		register(t, s, "V", plan, ivm.ModeID)
		lo, _ := d.Table("V")
		row, _ := lo.Get(rel.StatePost, []rel.Value{rel.Int(3)})
		items, _ := d.Table("items")
		group, _ := items.Lookup(rel.StatePost, []string{"grp"}, []rel.Value{rel.Int(3)})
		deleted := 0
		for _, r := range group {
			if r[2].Equal(row[1]) {
				if _, err := d.Delete("items", []rel.Value{r[0]}); err != nil {
					t.Fatal(err)
				}
				deleted++
			}
		}
		cost := maintainAndCheck(t, s)[0].Phases.Total().Total()
		sameAsWritten(t, d, "V", plan, "minimum deleted")
		// One multiset row per distinct value (≤ 15) plus the per-diff
		// probes of the cache and the view; a group rescan reads 120.
		if deleted == 0 || cost >= int64(len(group)) {
			t.Fatalf("deleting %d minimum tuples cost %d accesses; group size %d", deleted, cost, len(group))
		}
	})
}
