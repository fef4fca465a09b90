package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idivm/internal/lint"
)

// fixtureCases maps each registered analyzer to its seeded fixture
// package under testdata/src. Every fixture contains exactly one
// deliberate violation (the line marked `// violation`) and one blessed
// `//ivmlint:allow` suppression, so each case proves three things at
// once: the analyzer fires (the test fails if the analyzer is missing or
// disabled), it fires only where seeded, and the blessed annotation is
// counted as used rather than stale.
var fixtureCases = []struct {
	analyzer string
	wantMsg  string
}{
	{"maprange", "map iteration order"},
	{"deepequal", "reflect.DeepEqual"},
	{"bindname", "base:"},
	{"gostmt", "goroutine launched outside"},
	{"tabletype", "rel.Table"},
	{"chargepath", "cost"},
	{"countershard", "CostCounter.TupleReads"},
	{"sharedcapture", "captured variable"},
	{"floatfold", "map-iteration order"},
	{"epochcall", "outside the epoch protocol"},
	{"evalcall", "outside its oracle sites"},
	{"nodemut", "kept schema stale"},
}

func fixtureLoader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// violationLines returns the 1-based lines of every `// violation` marker
// in the fixture package — the exact positions the analyzer must flag.
func violationLines(t *testing.T, dir string) map[string][]int {
	t.Helper()
	want := map[string][]int{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "// violation") {
				want[e.Name()] = append(want[e.Name()], i+1)
			}
		}
	}
	return want
}

func TestAnalyzerFixtures(t *testing.T) {
	l := fixtureLoader(t)
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer, func(t *testing.T) {
			an := lint.ByName(tc.analyzer)
			if an == nil {
				t.Fatalf("analyzer %q is not registered", tc.analyzer)
			}
			dir := filepath.Join("testdata", "src", tc.analyzer)
			pkg, err := l.Load(dir)
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			findings := lint.LintPackage(pkg, []*lint.Analyzer{an})
			if len(findings) == 0 {
				t.Fatal("fixture produced no findings — analyzer disabled?")
			}

			// Every `// violation` marker must have a finding and nothing
			// else may be flagged.
			want := violationLines(t, dir)
			got := map[string][]int{}
			for _, f := range findings {
				if f.Analyzer != tc.analyzer {
					t.Errorf("finding from wrong analyzer: %s", f)
				}
				if !strings.Contains(f.Msg, tc.wantMsg) {
					t.Errorf("finding message %q does not mention %q", f.Msg, tc.wantMsg)
				}
				name := filepath.Base(f.Pos.Filename)
				got[name] = append(got[name], f.Pos.Line)
			}
			for name, lines := range want {
				if !equalInts(got[name], lines) {
					t.Errorf("%s: flagged lines %v, want %v", name, got[name], lines)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("unexpected findings in %s: %v", name, got[name])
				}
			}

			// The fixture's blessed suppression must be counted as used.
			if stale := lint.StaleFindings(pkg, []*lint.Analyzer{an}); len(stale) != 0 {
				t.Errorf("unexpected stale suppressions: %v", stale)
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStaleSuppressions exercises the three stale cases on the seeded
// stale fixture: a dead annotation for an analyzer that ran, an unknown
// analyzer name, and an annotation for an analyzer that did not run.
func TestStaleSuppressions(t *testing.T) {
	l := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", "stale")

	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ran := []*lint.Analyzer{lint.ByName("maprange")}
	if findings := lint.LintPackage(pkg, ran); len(findings) != 0 {
		t.Fatalf("stale fixture has live findings: %v", findings)
	}
	stale := lint.StaleFindings(pkg, ran)
	if len(stale) != 2 {
		t.Fatalf("stale findings = %v, want 2", stale)
	}
	var msgs []string
	for _, f := range stale {
		if f.Analyzer != lint.StaleAnalyzerName {
			t.Errorf("stale finding reported under %q, want %q", f.Analyzer, lint.StaleAnalyzerName)
		}
		msgs = append(msgs, f.Msg)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "unknown analyzer") {
		t.Errorf("missing unknown-analyzer case in %q", joined)
	}
	if !strings.Contains(joined, "suppresses no finding") {
		t.Errorf("missing dead-annotation case in %q", joined)
	}

	// A fresh load with the analyzer out of the ran set hits the third
	// case: the annotation names an analyzer that never ran here.
	pkg2, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	found := false
	for _, f := range lint.StaleFindings(pkg2, nil) {
		if strings.Contains(f.Msg, "does not run on this package's files") {
			found = true
		}
	}
	if !found {
		t.Error("missing not-run case")
	}
}

// TestRepositoryIsClean is the repo-wide self-lint gate: the module must
// produce zero findings — and zero stale suppressions — under the full
// analyzer suite, exactly like `go run ./cmd/ivmlint ./...` exiting zero.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module; skipped in -short")
	}
	res, err := lint.Run(".", []string{"./..."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, lerr := range res.LoadErrors {
		t.Errorf("load error: %v", lerr)
	}
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}
}
