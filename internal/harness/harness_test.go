package harness

import (
	"testing"

	"idivm/internal/bsma"
	"idivm/internal/workload"
)

func testParams() workload.Params {
	p := workload.Defaults(1200)
	p.Devices = 1200
	p.Fanout = 5
	p.DiffSize = 40
	return p
}

// speedup is tuple-based over ID-based, the figure's headline number.
func speedup(pt SweepPoint) float64 { return Speedup(pt.Results[0], pt.Results[1]) }

// Figure 12a shape: ID-based beats tuple-based at every diff size, and
// SDBT-streams is the most expensive column while SDBT-fixed is cheaper
// than idIVM (Section 7.3's ordering).
func TestFig12DiffSizeSweep(t *testing.T) {
	points, err := RunFig12(workload.VaryDiffSize, []int{20, 40, 60}, testParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if len(pt.Results) != 4 {
			t.Fatalf("d=%d: results = %d, want A..D", pt.Value, len(pt.Results))
		}
		a, b, c, d := pt.Results[0], pt.Results[1], pt.Results[2], pt.Results[3]
		if speedup(pt) <= 1 {
			t.Errorf("d=%d: speedup %.2f ≤ 1", pt.Value, speedup(pt))
		}
		if c.Accesses > a.Accesses {
			t.Errorf("d=%d: SDBT-fixed (%d) should be ≤ idIVM (%d)", pt.Value, c.Accesses, a.Accesses)
		}
		if d.Accesses <= a.Accesses {
			t.Errorf("d=%d: SDBT-streams (%d) should exceed idIVM (%d)", pt.Value, d.Accesses, a.Accesses)
		}
		if b.Accesses <= a.Accesses {
			t.Errorf("d=%d: tuple (%d) should exceed idIVM (%d)", pt.Value, b.Accesses, a.Accesses)
		}
	}
}

// Figure 12b shape: the speedup grows monotonically-ish with the number
// of joins (we assert the endpoints).
func TestFig12JoinsSweep(t *testing.T) {
	points, err := RunFig12(workload.VaryJoins, []int{2, 4}, testParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(points[0].Results) != 2 {
		t.Fatal("joins sweep must drop the SDBT columns")
	}
	if speedup(points[1]) <= speedup(points[0]) {
		t.Errorf("speedup must widen with joins: %.2f then %.2f",
			speedup(points[0]), speedup(points[1]))
	}
	// idIVM's own cost stays flat while tuple's grows (Section 7.2).
	a2, a4 := points[0].Results[0].Accesses, points[1].Results[0].Accesses
	b2, b4 := points[0].Results[1].Accesses, points[1].Results[1].Accesses
	if float64(a4) > 1.5*float64(a2) {
		t.Errorf("idIVM cost should stay ~flat with joins: %d then %d", a2, a4)
	}
	if b4 <= b2 {
		t.Errorf("tuple cost should grow with joins: %d then %d", b2, b4)
	}
}

// Figure 12c shape: the speedup declines as selectivity grows but stays
// at or above ~1.
func TestFig12SelectivitySweep(t *testing.T) {
	points, err := RunFig12(workload.VarySelectivity, []int{6, 100}, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	if speedup(points[0]) <= speedup(points[1]) {
		t.Errorf("speedup must shrink with selectivity: %.2f then %.2f",
			speedup(points[0]), speedup(points[1]))
	}
	if speedup(points[1]) < 0.95 {
		t.Errorf("at s=100%% idIVM must stay ≈ on par, got %.2f", speedup(points[1]))
	}
}

// Figure 12d shape: ID-based wins across fanouts.
func TestFig12FanoutSweep(t *testing.T) {
	points, err := RunFig12(workload.VaryFanout, []int{5, 15}, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if speedup(pt) <= 1 {
			t.Errorf("f=%d: speedup %.2f ≤ 1", pt.Value, speedup(pt))
		}
	}
}

func TestFig10Small(t *testing.T) {
	p := bsma.Defaults(150)
	p.FriendsPerUser, p.TweetsPerUser, p.UpdateCount = 4, 4, 15
	rows, err := RunFig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if Speedup(r.ID, r.Tuple) < 1 {
			t.Errorf("%s: speedup %.2f < 1", r.Query, Speedup(r.ID, r.Tuple))
		}
	}
}

// The measured SPJ speedup must be within a reasonable band of equation
// (1)'s prediction from the measured a and p.
func TestCostModelValidationSPJ(t *testing.T) {
	v, err := RunCostModelValidation(testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Params.A <= 0 || v.Params.P <= 0 {
		t.Fatalf("degenerate parameters: %+v", v.Params)
	}
	ratio := v.MeasuredSpeedup / v.PredictedSpeedup
	t.Logf("spj: a=%.1f p=%.2f measured=%.2f predicted=%.2f (ratio %.2f)",
		v.Params.A, v.Params.P, v.MeasuredSpeedup, v.PredictedSpeedup, ratio)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("measured/predicted = %.2f outside [0.5, 2]", ratio)
	}
}

func TestCostModelValidationAgg(t *testing.T) {
	v, err := RunCostModelValidation(testParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	ratio := v.MeasuredSpeedup / v.PredictedSpeedup
	t.Logf("agg: a=%.1f p=%.2f g=%.2f measured=%.2f predicted=%.2f (ratio %.2f)",
		v.Params.A, v.Params.P, v.Params.G, v.MeasuredSpeedup, v.PredictedSpeedup, ratio)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("measured/predicted = %.2f outside [0.4, 2.5]", ratio)
	}
}

// Footnote 9: small diffs favour IVM; once most of a base table changes,
// recomputation (with its sequential-scan advantage) wins.
func TestCrossover(t *testing.T) {
	p := testParams()
	rows, err := RunCrossover(p, []int{20, p.Parts})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].IVMWins {
		t.Errorf("d=20: IVM should win (%d vs %d weighted)",
			rows[0].IVMAccesses, rows[0].RecomputeWeighted)
	}
	if rows[1].IVMWins {
		t.Errorf("d=%d: recompute should win (%d vs %d weighted)",
			p.Parts, rows[1].IVMAccesses, rows[1].RecomputeWeighted)
	}
	if rows[0].RecomputeAccesses <= rows[0].RecomputeWeighted {
		t.Error("weighted recompute cost must discount the raw cost")
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	if s := Speedup(ApproachResult{Accesses: 0}, ApproachResult{Accesses: 10}); s != 0 {
		t.Fatalf("zero-access speedup = %v", s)
	}
}

// The ablations at a small Figure 12a point: dropping the intermediate
// cache costs the aggregate view more accesses (§6.2), and pass 4 never
// makes a script dearer.
func TestAblation(t *testing.T) {
	rows, err := RunAblation(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Name != "full idIVM" {
		t.Fatalf("rows = %+v, want full, no-cache, no-minimization", rows)
	}
	if rows[1].Accesses <= rows[0].Accesses {
		t.Errorf("no cache: %d accesses, want more than the full system's %d", rows[1].Accesses, rows[0].Accesses)
	}
	if rows[2].Accesses < rows[0].Accesses {
		t.Errorf("no minimization: %d accesses, below the full system's %d", rows[2].Accesses, rows[0].Accesses)
	}
}
