package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"idivm/internal/bsma"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

func sampleSweep() []SweepPoint {
	return []SweepPoint{
		{
			Value: 100,
			Results: []ApproachResult{
				{Name: "idIVM", Accesses: 1000, Breakdown: [4]int64{0, 200, 600, 200}, Millis: 1.5},
				{Name: "tuple-IVM", Accesses: 4000, Breakdown: [4]int64{0, 0, 3800, 200}, Millis: 6.1},
				{Name: "sdbt-fixed", Accesses: 800, Breakdown: [4]int64{0, 0, 800, 0}, Millis: 0.9},
				{Name: "sdbt-streams", Accesses: 6000, Breakdown: [4]int64{0, 0, 6000, 0}, Millis: 9.0},
			},
			Speedup: 4,
		},
	}
}

func TestWriteFig12CSV(t *testing.T) {
	var buf bytes.Buffer
	WriteFig12CSV(&buf, VaryDiffSize, sampleSweep())
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d, want header + 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "d,approach,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "100,idIVM,0,200,600,200,1000,1.500,4.000") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteFig10CSV(t *testing.T) {
	rows := []Fig10Row{{
		Query:   "Q7",
		ID:      ApproachResult{Accesses: 100, Millis: 1},
		Tuple:   ApproachResult{Accesses: 900, Millis: 3},
		Speedup: 9,
	}}
	var buf bytes.Buffer
	WriteFig10CSV(&buf, rows)
	if !strings.Contains(buf.String(), "Q7,100,900,9.000,1.000,3.000") {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	if s := Speedup(ApproachResult{Accesses: 0}, ApproachResult{Accesses: 10}); s != 0 {
		t.Fatalf("zero-access speedup = %v", s)
	}
}

func TestShortNames(t *testing.T) {
	cases := map[string]string{
		"idIVM":        "A:idIVM",
		"tuple-IVM":    "B:tuple",
		"sdbt-fixed":   "C:sdbt-f",
		"sdbt-streams": "D:sdbt-s",
		"other":        "other",
	}
	for in, want := range cases {
		if got := shortName(in); got != want {
			t.Errorf("shortName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFprintStepsEndsWithTotal: the step table ends with one row summing
// every view's (round) row — rows, accesses and µs.
func TestFprintStepsEndsWithTotal(t *testing.T) {
	report := func(view string, rows int, reads int64, d time.Duration) *ivm.Report {
		pc := &ivm.PhaseCosts{Steps: []ivm.StepCost{{Step: "Δ1", Rows: rows, Cost: rel.CostCounter{TupleReads: reads}, Time: d}}}
		pc.Cost[2].TupleReads = reads
		return &ivm.Report{View: view, Phases: pc, Duration: d, DiffTuples: rows}
	}
	var buf bytes.Buffer
	FprintSteps(&buf, []*ivm.Report{report("A", 3, 40, 1500*time.Nanosecond), report("B", 5, 2, 500*time.Nanosecond)})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := strings.Fields(lines[len(lines)-1]); strings.Join(got, " ") != "total (round) 8 42 2.0" {
		t.Fatalf("last row %q, want the sum of the views' (round) rows:\n%s", got, buf.String())
	}
}

// TestFprintScriptsPrintsEveryView: the -scripts output is one Δ-script per
// view of RegisterManyViews, in registration order.
func TestFprintScriptsPrintsEveryView(t *testing.T) {
	var buf bytes.Buffer
	if err := FprintScripts(&buf, bsma.Defaults(40)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "-- Δ-script for "); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	if want := append(bsma.QueryNames(), CityViews...); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scripts for %v, want %v", got, want)
	}
}
