package ivm_test

import (
	"math/rand"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// orphanPartsPlan: parts contained in no device — the antisemijoin /
// negation of the paper's QSPJADU (difference as a special case).
func orphanPartsPlan(t testing.TB, d *db.Database) algebra.Node {
	t.Helper()
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	return algebra.NewAntiJoin(sp, sdp,
		expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid")))
}

// phonePartsSemiPlan: parts contained in at least one phone.
func phonePartsSemiPlan(t testing.TB, d *db.Database) algebra.Node {
	t.Helper()
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	devices, _ := d.Table("devices")
	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	sd := algebra.NewScan("devices", "", devices.Schema())
	phones := algebra.NewSelect(sd, expr.Eq(expr.C("devices.category"), expr.StrLit("phone")))
	phoneParts := algebra.NewJoin(sdp, phones, expr.Eq(expr.C("devices_parts.did"), expr.C("devices.did")))
	return algebra.NewSemiJoin(sp, phoneParts, expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid")))
}

func TestAntisemijoinView(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			s := ivm.NewSystem(d)
			register(t, s, "orphans", orphanPartsPlan(t, d), mode)

			vt, _ := d.Table("orphans")
			if vt.Len() != 0 {
				t.Fatalf("initially no orphans, got %d", vt.Len())
			}
			// A new part with no containment is an orphan.
			if err := d.Insert("parts", rel.Tuple{rel.String("P3"), rel.Int(30)}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 1 {
				t.Fatalf("orphans = %d, want 1", vt.Len())
			}
			// Containing it removes it from the view (a right-side insert).
			if err := d.Insert("devices_parts", rel.Tuple{rel.String("D3"), rel.String("P3")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 0 {
				t.Fatalf("orphans after containment = %d, want 0", vt.Len())
			}
			// Deleting the containment re-adds it (a right-side delete).
			if _, err := d.Delete("devices_parts", []rel.Value{rel.String("D3"), rel.String("P3")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 1 {
				t.Fatalf("orphans after un-containment = %d, want 1", vt.Len())
			}
			// Updating an orphan's non-condition attribute flows through.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P3")}, []string{"price"}, []rel.Value{rel.Int(99)})
			maintainAndCheck(t, s)
			row, ok := vt.Get(rel.StatePost, []rel.Value{rel.String("P3")})
			if !ok || !row[1].Equal(rel.Int(99)) {
				t.Fatalf("orphan P3 = %v", row)
			}
		})
	}
}

func TestSemijoinView(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			s := ivm.NewSystem(d)
			register(t, s, "phoneparts", phonePartsSemiPlan(t, d), mode)
			vt, _ := d.Table("phoneparts")
			if vt.Len() != 2 {
				t.Fatalf("initial = %d, want 2", vt.Len())
			}
			// D2 leaves the phone category: P1 is still on D1 (stays); P2
			// only on D1 (stays). Then D1 leaves too: view empties.
			mustUpdate(t, d, "devices", []rel.Value{rel.String("D2")}, []string{"category"}, []rel.Value{rel.String("tablet")})
			maintainAndCheck(t, s)
			if vt.Len() != 2 {
				t.Fatalf("after D2 flip = %d, want 2", vt.Len())
			}
			mustUpdate(t, d, "devices", []rel.Value{rel.String("D1")}, []string{"category"}, []rel.Value{rel.String("tablet")})
			maintainAndCheck(t, s)
			if vt.Len() != 0 {
				t.Fatalf("after D1 flip = %d, want 0", vt.Len())
			}
			// And back.
			mustUpdate(t, d, "devices", []rel.Value{rel.String("D1")}, []string{"category"}, []rel.Value{rel.String("phone")})
			maintainAndCheck(t, s)
			if vt.Len() != 2 {
				t.Fatalf("after D1 return = %d, want 2", vt.Len())
			}
		})
	}
}

func TestUnionAllView(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			// Second parts-like table.
			legacy := d.MustCreateTable("legacy_parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
			legacy.MustInsert(rel.String("L1"), rel.Int(5))

			parts, _ := d.Table("parts")
			sp := algebra.NewScan("parts", "", parts.Schema())
			sl := algebra.NewScan("legacy_parts", "", legacy.Schema())
			pl := algebra.NewProject(sl, []algebra.ProjItem{
				{E: expr.C("legacy_parts.pid"), As: "parts.pid"},
				{E: expr.C("legacy_parts.price"), As: "parts.price"},
			})
			fixed, err := algebra.EnsureIDs(pl)
			if err != nil {
				t.Fatal(err)
			}
			// Keep attribute lists identical for the union.
			u := algebra.NewUnionAll("b", algebra.Keep(sp, "parts.pid", "parts.price"),
				algebra.Keep(fixed, "parts.pid", "parts.price"))

			s := ivm.NewSystem(d)
			register(t, s, "all_parts", u, mode)
			vt, _ := d.Table("all_parts")
			if vt.Len() != 3 {
				t.Fatalf("initial union = %d, want 3", vt.Len())
			}
			// Changes on both branches.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(11)})
			if err := d.Insert("legacy_parts", rel.Tuple{rel.String("L2"), rel.Int(6)}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Delete("parts", []rel.Value{rel.String("P2")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 3 {
				t.Fatalf("union after churn = %d, want 3", vt.Len())
			}
			// A pid present in BOTH branches stays distinct via b.
			if err := d.Insert("legacy_parts", rel.Tuple{rel.String("P1"), rel.Int(7)}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			if vt.Len() != 4 {
				t.Fatalf("union with shared pid = %d, want 4", vt.Len())
			}
		})
	}
}

// minMaxPlan exercises the general (recompute) aggregation path of Table 7.
func minMaxPlan(t testing.TB, d *db.Database) algebra.Node {
	t.Helper()
	return algebra.NewGroupBy(spjPlan(t, d), []string{"devices_parts.did"},
		[]algebra.Agg{
			{Fn: algebra.AggMin, Arg: expr.C("price"), As: "cheapest"},
			{Fn: algebra.AggMax, Arg: expr.C("price"), As: "dearest"},
		})
}

func TestMinMaxAggregateView(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			s := ivm.NewSystem(d)
			register(t, s, "extremes", minMaxPlan(t, d), mode)
			vt, _ := d.Table("extremes")

			row, _ := vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(10)) || !row[2].Equal(rel.Int(20)) {
				t.Fatalf("D1 extremes = %v", row)
			}
			// MIN must RISE when the cheapest part gets dearer — the case
			// incremental min/max cannot handle without recomputation.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(50)})
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(20)) || !row[2].Equal(rel.Int(50)) {
				t.Fatalf("D1 extremes after rise = %v", row)
			}
			// Deleting the dearest part must LOWER max.
			if _, err := d.Delete("devices_parts", []rel.Value{rel.String("D1"), rel.String("P1")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Equal(rel.Int(20)) || !row[2].Equal(rel.Int(20)) {
				t.Fatalf("D1 extremes after delete = %v", row)
			}
		})
	}
}

// avgPlan exercises the AVG rewrite: π[sum/cnt] over γ[SUM, COUNT], whose
// materialized γ is the operator cache of Table 12.
func avgPlan(t testing.TB, d *db.Database) algebra.Node {
	t.Helper()
	return algebra.NewGroupBy(spjPlan(t, d), []string{"devices_parts.did"},
		[]algebra.Agg{
			{Fn: algebra.AggAvg, Arg: expr.C("price"), As: "avgprice"},
			{Fn: algebra.AggSum, Arg: expr.C("price"), As: "total"},
		})
}

func TestAvgAggregateView(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			s := ivm.NewSystem(d)
			register(t, s, "avgs", avgPlan(t, d), mode)
			vt, _ := d.Table("avgs")

			row, _ := vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Same(rel.Float(15)) {
				t.Fatalf("D1 avg = %v, want 15", row)
			}
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P2")}, []string{"price"}, []rel.Value{rel.Int(30)})
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Same(rel.Float(20)) || !row[2].Equal(rel.Int(40)) {
				t.Fatalf("D1 after update = %v", row)
			}
			// Group cardinality changes: add a part to D1.
			if err := d.Insert("parts", rel.Tuple{rel.String("P4"), rel.Int(50)}); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert("devices_parts", rel.Tuple{rel.String("D1"), rel.String("P4")}); err != nil {
				t.Fatal(err)
			}
			maintainAndCheck(t, s)
			row, _ = vt.Get(rel.StatePost, []rel.Value{rel.String("D1")})
			if !row[1].Same(rel.Float(30)) {
				t.Fatalf("D1 avg after insert = %v, want 30", row)
			}
		})
	}
}

// Footnote 5: a table appearing under multiple aliases gets its diffs
// propagated through every scan.
func TestSelfJoinAliases(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			parts, _ := d.Table("parts")
			a := algebra.NewScan("parts", "a", parts.Schema())
			b := algebra.NewScan("parts", "b", parts.Schema())
			// Pairs of parts with equal price.
			plan := algebra.NewJoin(a, b, expr.And(
				expr.Eq(expr.C("a.price"), expr.C("b.price")),
				expr.Ne(expr.C("a.pid"), expr.C("b.pid"))))
			s := ivm.NewSystem(d)
			register(t, s, "samePrice", plan, mode)
			vt, _ := d.Table("samePrice")
			if vt.Len() != 0 {
				t.Fatalf("initial = %d, want 0", vt.Len())
			}
			// Make P2 cost the same as P1: both orders appear.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P2")}, []string{"price"}, []rel.Value{rel.Int(10)})
			maintainAndCheck(t, s)
			if vt.Len() != 2 {
				t.Fatalf("after equalizing = %d, want 2", vt.Len())
			}
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(12)})
			maintainAndCheck(t, s)
			if vt.Len() != 0 {
				t.Fatalf("after divergence = %d, want 0", vt.Len())
			}
		})
	}
}

// Randomized storms over the antisemijoin view (overestimation and
// membership churn under every diff type).
func TestRandomizedAntisemijoin(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			d := fig2DB(t)
			s := ivm.NewSystem(d)
			register(t, s, "orphans", orphanPartsPlan(t, d), mode)
			nextPart := 10
			for round := 0; round < 10; round++ {
				for i := 0; i < 1+rng.Intn(5); i++ {
					switch rng.Intn(4) {
					case 0:
						id := rel.String(partID(nextPart))
						nextPart++
						_ = d.Insert("parts", rel.Tuple{id, rel.Int(int64(rng.Intn(50)))})
					case 1:
						if k := randomKey(d, "parts", rng); k != nil {
							pid := k[0]
							did := randomKey(d, "devices", rng)
							if did != nil {
								_ = d.Insert("devices_parts", rel.Tuple{did[0], pid})
							}
						}
					case 2:
						if k := randomKey(d, "devices_parts", rng); k != nil {
							_, _ = d.Delete("devices_parts", k)
						}
					case 3:
						if k := randomKey(d, "parts", rng); k != nil {
							_, _ = d.Update("parts", k, []string{"price"}, []rel.Value{rel.Int(int64(rng.Intn(50)))})
						}
					}
				}
				maintainAndCheck(t, s)
			}
		})
	}
}

// A view over a view-shaped plan: σ above γ (the aggregate becomes
// interior and gets an output cache in ID mode).
func TestSelectionAboveAggregate(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			d := fig2DB(t)
			agg := aggPlan(t, d)
			plan := algebra.NewSelect(agg, expr.Gt(expr.C("cost"), expr.IntLit(15)))
			s := ivm.NewSystem(d)
			v := register(t, s, "bigcost", plan, mode)
			if mode == ivm.ModeID && len(v.Script.Caches) < 2 {
				t.Fatalf("interior aggregate should have input and output caches, got %v", v.Script.Caches)
			}
			vt, _ := d.Table("bigcost")
			if vt.Len() != 1 { // only D1 (cost 30) exceeds 15
				t.Fatalf("initial = %d, want 1", vt.Len())
			}
			// Push D2 over the threshold.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(18)})
			maintainAndCheck(t, s)
			if vt.Len() != 2 {
				t.Fatalf("after price rise = %d, want 2", vt.Len())
			}
			// And back below.
			mustUpdate(t, d, "parts", []rel.Value{rel.String("P1")}, []string{"price"}, []rel.Value{rel.Int(1)})
			maintainAndCheck(t, s)
			if vt.Len() != 1 {
				t.Fatalf("after price fall = %d, want 1 (D1 at 21)", vt.Len())
			}
		})
	}
}
