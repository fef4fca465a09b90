package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"idivm/internal/bsma"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the generated sections of EXPERIMENTS.md")

const docPath = "../../EXPERIMENTS.md"

// docSections are the generated sections of EXPERIMENTS.md, in document
// order: each names its marker, the table it holds and the one size flag it
// is rendered at (-users for the BSMA tables, -scale for the others), which
// the section states in its first line.
var docSections = []struct {
	marker, table string
	p             params
}{
	{"fig10", "fig10", params{users: 400}},
	{"fig12a", "fig12a", params{scale: 4000}},
	{"fig12b", "fig12b", params{scale: 4000}},
	{"fig12b-600", "fig12b", params{scale: 600}},
	{"fig12c", "fig12c", params{scale: 4000}},
	{"fig12d", "fig12d", params{scale: 4000}},
	{"table2", "table2", params{scale: 4000}},
	{"table3", "table3", params{scale: 4000}},
	{"crossover", "crossover", params{scale: 4000}},
	{"ablation", "ablation", params{scale: 4000}},
	{"steps", "steps", params{users: 1000}},
}

// section renders the body of one generated section: the command that
// prints the table, then the table.
func section(t table, p params) (string, error) {
	var b strings.Builder
	size := fmt.Sprintf("-scale %d", p.scale)
	if p.users != 0 {
		size = fmt.Sprintf("-users %d", p.users)
	}
	fmt.Fprintf(&b, "`go run ./cmd/experiments %s %s`:\n\n", t.sel, size)
	if err := t.render(&b, p); err != nil {
		return "", err
	}
	b.WriteString("\n")
	return b.String(), nil
}

// TestExperimentsDoc renders every count table of EXPERIMENTS.md at the
// sizes its section states and fails on any difference from the document.
// The sections run concurrently: every run builds its own database, and no
// count depends on the schedule. Refresh the document deliberately with:
//
//	go test ./cmd/experiments -run TestExperimentsDoc -update-golden
func TestExperimentsDoc(t *testing.T) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	var markers []string
	for _, m := range regexp.MustCompile(`(?m)^<!-- experiments:(\S+) -->$`).FindAllStringSubmatch(doc, -1) {
		markers = append(markers, m[1])
	}
	var want []string
	for _, s := range docSections {
		want = append(want, s.marker)
	}
	if !slices.Equal(markers, want) {
		t.Fatalf("EXPERIMENTS.md has sections %v, want %v", markers, want)
	}

	got := make([]string, len(docSections))
	errs := make([]error, len(docSections))
	var wg sync.WaitGroup
	for i, s := range docSections {
		ti := slices.IndexFunc(tables, func(t table) bool { return t.name == s.table })
		if ti < 0 {
			t.Fatalf("%s: no table %q", s.marker, s.table)
		}
		wg.Add(1)
		go func(i int, t table, p params) {
			defer wg.Done()
			got[i], errs[i] = section(t, p)
		}(i, tables[ti], s.p)
	}
	wg.Wait()

	for i, s := range docSections {
		if errs[i] != nil {
			t.Fatalf("%s: %v", s.marker, errs[i])
		}
		open, end := "<!-- experiments:"+s.marker+" -->\n", "<!-- /experiments:"+s.marker+" -->"
		start := strings.Index(doc, open)
		stop := strings.Index(doc, end)
		if start < 0 || stop < start {
			t.Fatalf("%s: no closing marker %q after the opening one", s.marker, end)
		}
		start += len(open)
		if doc[start:stop] == got[i] {
			continue
		}
		if *updateGolden {
			doc = doc[:start] + got[i] + doc[stop:]
			continue
		}
		t.Errorf("EXPERIMENTS.md section %s is stale; refresh it with -update-golden.\n--- rendered ---\n%s--- document ---\n%s",
			s.marker, got[i], doc[start:stop])
	}
	if *updateGolden && doc != string(raw) {
		if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// An unknown -fig or -table value is a usage error, not an empty run.
func TestUnknownSelectionIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-fig", "13"}, {"-table", "9"}, {"-fig", "12a", "-table", "9"}, {}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("%v: stdout %q, stderr %q; want the usage on stderr only", args, stdout.String(), stderr.String())
		}
	}
}

// TestPrintStepsEndsWithTotal: the step table ends with one row summing
// every view's (round) row — rows and accesses of the first round — and
// timing it with the median over the warm rounds of their summed times.
func TestPrintStepsEndsWithTotal(t *testing.T) {
	report := func(view string, rows int, reads int64, d time.Duration) *ivm.Report {
		pc := &ivm.PhaseCosts{Steps: []ivm.StepCost{{Step: "Δ1", Rows: rows, Cost: rel.CostCounter{TupleReads: reads}, Time: d}}}
		pc.Cost[2].TupleReads = reads
		return &ivm.Report{View: view, Phases: pc, Duration: d, DiffTuples: rows}
	}
	round := func(a, b time.Duration) []*ivm.Report {
		return []*ivm.Report{report("A", 3, 40, a), report("B", 5, 2, b)}
	}
	var buf bytes.Buffer
	// The first round's 9 ms is cold and not timed. The warm rounds' sums
	// are 2, 30 and 13 µs: the total's median is 13, not the sum of the
	// views' medians (3 + 2).
	printSteps(&buf, round(9*time.Millisecond, 0), [][]*ivm.Report{
		round(1500*time.Nanosecond, 500*time.Nanosecond), round(28*time.Microsecond, 2*time.Microsecond), round(3*time.Microsecond, 10*time.Microsecond)})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := lines[len(lines)-1]; got != "| total | (round) | 8 | 42 | 13.0 |" {
		t.Fatalf("last row %q, want the sum of the views' (round) rows:\n%s", got, buf.String())
	}
	if got := lines[len(lines)-4]; got != "| A | (round) | 3 | 40 | 3.0 |" {
		t.Fatalf("view A's row %q, want its first-round counts and median warm time:\n%s", got, buf.String())
	}
}

// TestPrintScriptsPrintsEveryView: the -scripts output is one Δ-script per
// view of bsma.ViewNames, in registration order.
func TestPrintScriptsPrintsEveryView(t *testing.T) {
	var buf bytes.Buffer
	if err := printScripts(&buf, bsma.Defaults(40)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "-- Δ-script for "); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	if want := bsma.ViewNames(); !slices.Equal(got, want) {
		t.Fatalf("scripts for %v, want %v", got, want)
	}
}
