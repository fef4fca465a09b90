package main

// compare PARENT CHANGE applies the measuring rule of the choosing-metrics
// guide (§8) to two results files written with -record: at least ten
// pairs per workload, a gain only when the change wins at least nine
// tenths of the pairs and the medians differ by more than the distance
// between the parent's quartiles, a regression when the change's median
// is worse than the parent's by more than the metric's bound, and
// "unresolved" instead of "unchanged" when either side's own spread
// exceeds that bound.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

const minPairs = 10

func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.DefaultConfig {
			return nil, fmt.Errorf("%s:%d: run with default_config false (a knob flag or an IDIVM_* variable was set); compare only measures defaults", path, line)
		}
		if r.Trace || r.Smoke {
			continue // only full untraced runs carry the gated metrics
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

func valuesOf(rs []record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func compare(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	return compareRecords(parent, change, stdout, stderr)
}

func compareRecords(parent, change map[string][]record, stdout, stderr io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-13s %-18s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "parent", "change", "iqr/med", "iqr/med", "wins", "verdict")
	for _, w := range workloads {
		p, c := parent[w.name], change[w.name]
		n := len(p)
		if len(c) < n {
			n = len(c)
		}
		if n < minPairs {
			fmt.Fprintf(stderr, "benchmark compare: %s has %d pairs, need %d\n", w.name, n, minPairs)
			code = 2
			continue
		}
		p, c = p[:n], c[:n]
		failed := 0
		for i := range p {
			failed += p[i].Failed + c[i].Failed
		}
		if failed > 0 {
			fmt.Fprintf(stderr, "benchmark compare: %s has %d failed operations; no verdict rests on such runs\n", w.name, failed)
			code = 2
			continue
		}
		for _, m := range endToEnd {
			pv, cv := valuesOf(p, m.name), valuesOf(c, m.name)
			pm, cm := median(pv), median(cv)
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			pSpread, cSpread := (pq3-pq1)/pm, (cq3-cq1)/cm
			sign := 1.0 // positive gap = change is better
			if m.better == "lower" {
				sign = -1
			}
			wins, losses := 0, 0
			for i := range pv {
				switch d := sign * (cv[i] - pv[i]); {
				case d > 0:
					wins++
				case d < 0:
					losses++
				}
			}
			gap := sign * (cm - pm)
			verdict := "no change"
			switch {
			case gap < -m.bound*pm:
				verdict = "REGRESSION"
				code = 1
			case m.name != "setup_s" && (pSpread > m.bound || cSpread > m.bound):
				verdict = "unresolved"
			case float64(wins) >= 0.9*float64(n) && gap > pq3-pq1:
				verdict = "gain"
			case float64(losses) >= 0.9*float64(n) && -gap > pq3-pq1:
				verdict = "worse, within bound"
			}
			fmt.Fprintf(stdout, "%-13s %-18s %12.4f %12.4f %7.1f%% %7.1f%% %4d/%-2d  %s\n",
				w.name, m.name, pm, cm, 100*math.Abs(pSpread), 100*math.Abs(cSpread), wins, n, verdict)
		}
	}
	fmt.Fprintln(stdout, `{"claim": null}`)
	return code
}
