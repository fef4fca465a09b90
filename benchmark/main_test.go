package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamOf renders the first rounds and read pages of a set-up's streams.
func streamOf(t *testing.T, w *workloadSpec, seed int64) string {
	t.Helper()
	b, err := w.setup(w, seed, true, knobs{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintln(&sb, b.mods.next())
		fmt.Fprintln(&sb, b.page.next())
	}
	return sb.String()
}

func TestSeedFixesTheStreams(t *testing.T) {
	t.Parallel() // checks names and correctness, never a timing
	for _, w := range workloads {
		a, again, other := streamOf(t, w, 7), streamOf(t, w, 7), streamOf(t, w, 8)
		if a != again {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestUpdateRoundsHaveDistinctKeys(t *testing.T) {
	for _, w := range workloads[:2] {
		b, err := w.setup(w, 3, true, knobs{})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 30; r++ {
			seen := map[string]bool{}
			for _, m := range b.mods.next() {
				k := fmt.Sprint(m.key)
				if seen[k] {
					t.Fatalf("%s round %d modifies key %s twice", w.name, r, k)
				}
				seen[k] = true
			}
		}
		b.close()
	}
}

// feedRows sets the full-size feed up and returns the view's size before
// and after the given number of rounds.
func feedRows(t *testing.T, seed int64, rounds int) (start, end int) {
	t.Helper()
	w := findWorkload("feed_serving")
	b, err := w.setup(w, seed, false, knobs{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	feed, err := b.d.Table("feed")
	if err != nil {
		t.Fatal(err)
	}
	start = feed.Len()
	for i := 0; i < rounds; i++ {
		if err := b.round(b.mods.next()); err != nil {
			t.Fatal(err)
		}
		b.afterRound()
	}
	if b.fail.n > 0 {
		t.Fatalf("%d failed operations: %s", b.fail.n, b.fail.first)
	}
	return start, feed.Len()
}

func TestFeedKeepsItsSize(t *testing.T) {
	t.Parallel() // checks names and correctness, never a timing
	start, end := feedRows(t, 1, 12)
	if math.Abs(float64(end-start)) > 0.05*float64(start) {
		t.Errorf("feed went from %d to %d rows in 12 rounds, more than 5 %%", start, end)
	}
	for seed := int64(2); seed <= 3; seed++ {
		other, _ := feedRows(t, seed, 0)
		if math.Abs(float64(other-start)) > 0.02*float64(start) {
			t.Errorf("feed starts at %d rows with seed %d and %d with seed 1, more than 2 %% apart", other, seed, start)
		}
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json this test reads.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func sameMetrics(t *testing.T, what string, got []jsonMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go has %d", what, len(got), len(want))
	}
	for i, d := range want {
		g := got[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go has %+v", what, i, g, d)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's workload and
// metric names identical to what the program declares and prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	t.Parallel() // checks names and correctness, never a timing
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	sameMetrics(t, "end_to_end", bj.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", bj.PerLayer, perLayer)

	out := t.TempDir()
	for _, w := range workloads {
		accesses := 0.0
		// Untraced twice: the count metrics must repeat exactly for a seed.
		for _, trace := range []bool{false, false, true} {
			res, err := run(runConfig{spec: w, seed: 5, seconds: 0.1, trace: trace, smoke: true, outDir: out, log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if a := res.Metrics["accesses_per_mod"].Value; !trace {
				if accesses != 0 && a != accesses {
					t.Errorf("%s: accesses_per_mod read %v then %v for the same seed", w.name, accesses, a)
				}
				accesses = a
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w.name, trace, res.Correct, res.Attempted, res.Failed, res.firstFailure)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// records builds n untraced records of one workload whose metrics all
// read base·scale(i).
func records(w string, n int, base float64, scale func(i int) float64, defaultConfig bool) []record {
	var out []record
	for i := 0; i < n; i++ {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.name] = metricValue{Value: base * scale(i), Unit: d.unit}
		}
		out = append(out, record{Workload: w, Seed: int64(i), DefaultConfig: defaultConfig, Correct: true, Attempted: 1, Metrics: m})
	}
	return out
}

func allWorkloads(n int, base float64, scale func(i int) float64) map[string][]record {
	out := map[string][]record{}
	for _, w := range workloads {
		out[w.name] = records(w.name, n, base, scale, true)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(i int) float64 { return 1 + 0.001*float64(i%3) }
	noisy := func(i int) float64 { return 1 + 0.2*float64(i%4) }
	verdicts := func(parent, change map[string][]record) (string, int) {
		var out, errs bytes.Buffer
		code := compareRecords(parent, change, &out, &errs)
		return out.String() + errs.String(), code
	}

	out, code := verdicts(allWorkloads(10, 100, steady), allWorkloads(10, 70, steady))
	// Everything fell by three tenths: a gain where lower is better, a
	// regression beyond its bound for mods_per_s.
	if code != 1 || !strings.Contains(out, "visible_ms_p50") || !strings.Contains(out, "gain") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("30 %% lower everywhere: code %d, output:\n%s", code, out)
	}
	if !strings.HasSuffix(strings.TrimSpace(out), `{"claim": null}`) {
		t.Errorf("compare output does not end with a null claim:\n%s", out)
	}
	if out, code = verdicts(allWorkloads(10, 100, steady), allWorkloads(10, 100, steady)); code != 0 || strings.Contains(out, "gain") || strings.Contains(out, "REGRESSION") {
		t.Errorf("identical sides: code %d, output:\n%s", code, out)
	}
	if out, code = verdicts(allWorkloads(10, 100, noisy), allWorkloads(10, 95, noisy)); code != 0 || !strings.Contains(out, "unresolved") {
		t.Errorf("noisy sides: code %d, output:\n%s", code, out)
	}
	if out, code = verdicts(allWorkloads(9, 100, steady), allWorkloads(9, 100, steady)); code != 2 || !strings.Contains(out, "need 10") {
		t.Errorf("nine pairs: code %d, output:\n%s", code, out)
	}
}

func TestCompareRejectsNonDefaultConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	var buf bytes.Buffer
	for _, r := range records("spj_price", 1, 1, func(int) float64 { return 1 }, false) {
		line, _ := json.Marshal(r)
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecords(path); err == nil || !strings.Contains(err.Error(), "default_config") {
		t.Errorf("readRecords accepted a default_config false run: %v", err)
	}
}

func TestRecordEndsWithNullClaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"setup_s": {1, "s"}}}
	if err := appendRecord(path, runConfig{spec: workloads[0], seed: 1, seconds: 1}, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(raw)), `"claim":null}`) {
		t.Errorf("record does not end with a null claim: %s", raw)
	}
}
