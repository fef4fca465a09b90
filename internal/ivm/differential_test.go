package ivm_test

import (
	"math/rand"
	"testing"

	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// samePhases compares everything deterministic about two maintenance
// reports: phase-level access counts, the per-step cost breakdown, and the
// diff-tuple counts. Wall times are excluded.
func samePhases(t *testing.T, label string, a, b *ivm.Report) {
	t.Helper()
	if a.DiffTuples != b.DiffTuples {
		t.Fatalf("%s: DiffTuples %d != %d", label, a.DiffTuples, b.DiffTuples)
	}
	if a.Phases.Cost != b.Phases.Cost {
		t.Fatalf("%s: phase costs differ:\n compiled   %v\n interpreted %v",
			label, a.Phases.Cost, b.Phases.Cost)
	}
	if a.Phases.RowsTouched != b.Phases.RowsTouched ||
		a.Phases.ViewDiffTuples != b.Phases.ViewDiffTuples ||
		a.Phases.ViewRowsTouched != b.Phases.ViewRowsTouched {
		t.Fatalf("%s: apply stats differ: (%d,%d,%d) != (%d,%d,%d)", label,
			a.Phases.RowsTouched, a.Phases.ViewDiffTuples, a.Phases.ViewRowsTouched,
			b.Phases.RowsTouched, b.Phases.ViewDiffTuples, b.Phases.ViewRowsTouched)
	}
	if len(a.Phases.Steps) != len(b.Phases.Steps) {
		t.Fatalf("%s: step counts %d != %d", label, len(a.Phases.Steps), len(b.Phases.Steps))
	}
	for i := range a.Phases.Steps {
		sa, sb := a.Phases.Steps[i], b.Phases.Steps[i]
		if sa.Step != sb.Step || sa.Cost != sb.Cost || sa.Rows != sb.Rows {
			t.Fatalf("%s: step %d: compiled %s %v != interpreted %s %v",
				label, i, sa.Step, sa.Cost, sb.Step, sb.Cost)
		}
	}
}

func viewState(t *testing.T, d *db.Database, name string) *rel.Relation {
	t.Helper()
	tb, err := d.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb.Relation(rel.StatePost)
}

// TestCompiledMatchesInterpretedDifferential is the differential net over
// the compile-once executor: every seeded random plan runs through the
// compiled path (the registration default) and the interpreted oracle
// (System.Interpret) on identical twin databases fed identical
// modification streams. Final view state, per-step reports and the
// database access counters must be byte-identical every round — the
// counter-parity invariant of DESIGN.md §8.
func TestCompiledMatchesInterpretedDifferential(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 8
	}
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		t.Run(mode.String(), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				seed := int64(7000 + trial)
				dC, dI := fig2DB(t), fig2DB(t)
				// One plan, generated against dC's schemas; the twin holds
				// identical tables, so the plan is valid for both.
				g := &planGen{rng: rand.New(rand.NewSource(seed)), d: dC}
				plan := g.gen()

				sysC := ivm.NewSystem(dC) // compiled path (default)
				sysI := ivm.NewSystem(dI)
				sysI.Interpret = true // interpreted oracle
				if _, err := sysC.RegisterView("V", plan, mode); err != nil {
					t.Fatalf("trial %d: register compiled: %v\nplan: %s", trial, err, plan)
				}
				if _, err := sysI.RegisterView("V", plan, mode); err != nil {
					t.Fatalf("trial %d: register interpreted: %v\nplan: %s", trial, err, plan)
				}

				// Twin rngs with one seed: identical databases see identical
				// modification streams.
				rngC := rand.New(rand.NewSource(seed * 31))
				rngI := rand.New(rand.NewSource(seed * 31))
				nextC, nextI := 50, 50
				for round := 0; round < 5; round++ {
					randomMods(dC, rngC, &nextC)
					randomMods(dI, rngI, &nextI)

					dC.Counter().Reset()
					dI.Counter().Reset()
					repC, err := sysC.MaintainAll()
					if err != nil {
						t.Fatalf("trial %d round %d: compiled: %v\nplan: %s", trial, round, err, plan)
					}
					repI, err := sysI.MaintainAll()
					if err != nil {
						t.Fatalf("trial %d round %d: interpreted: %v\nplan: %s", trial, round, err, plan)
					}
					label := mode.String()
					if len(repC) != 1 || len(repI) != 1 {
						t.Fatalf("%s trial %d round %d: report counts %d/%d", label, trial, round, len(repC), len(repI))
					}
					samePhases(t, label, repC[0], repI[0])
					if cc, ci := *dC.Counter(), *dI.Counter(); cc != ci {
						t.Fatalf("%s trial %d round %d: counters differ:\n compiled    %v\n interpreted %v\nplan: %s",
							label, trial, round, cc, ci, plan)
					}
					vc, vi := viewState(t, dC, "V"), viewState(t, dI, "V")
					if !vc.EqualSet(vi) {
						t.Fatalf("%s trial %d round %d: view states diverge:\n compiled:\n%v\n interpreted:\n%v\nplan: %s",
							label, trial, round, vc.Sorted(), vi.Sorted(), plan)
					}
					if err := sysC.CheckConsistent("V"); err != nil {
						t.Fatalf("%s trial %d round %d: %v\nplan: %s", label, trial, round, err, plan)
					}
				}
			}
		})
	}
}

// TestEngineMatrixDifferential is the differential net over the compiled
// kernels: every seeded random plan runs, per storage engine (mem, sharded:1,
// sharded:8), through the interpreted oracle and compiled, fed identical
// modification streams. Every compiled cell must reproduce its engine's
// reference byte-for-byte — per-step reports and the database access
// counters. (The reference is per-engine: physical scan order differs between
// backends, which can legitimately shift apply-phase costs; the executor must
// not.) Final view state must additionally agree across all engines.
func TestEngineMatrixDifferential(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 3
	}
	engines := []struct {
		name string
		mk   func() storage.Engine
	}{
		{"mem", storage.NewMem},
		{"sharded1", func() storage.Engine { return storage.NewSharded(1) }},
		{"sharded8", func() storage.Engine { return storage.NewSharded(8) }},
	}
	strategies := []struct {
		name      string
		interpret bool
	}{
		{"interp", true}, // per-engine reference: the oracle; must come first
		{"compiled", false},
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(11000 + trial)
		// One plan, generated against a throwaway mem twin; every cell
		// holds identical tables, so the plan is valid for all of them.
		gDB := fig2DB(t)
		g := &planGen{rng: rand.New(rand.NewSource(seed)), d: gDB}
		plan := g.gen()

		type cell struct {
			label string
			d     *db.Database
			sys   *ivm.System
			rng   *rand.Rand
			next  int
			rep   *ivm.Report
			count rel.CostCounter
		}
		// cells[e][s]: engine e under strategy s; strategy 0 is the
		// interpreted reference every other strategy is compared against.
		cells := make([][]*cell, len(engines))
		for ei, e := range engines {
			for _, s := range strategies {
				d := fig2DBOn(t, e.mk())
				sys := ivm.NewSystem(d)
				sys.Interpret = s.interpret
				if _, err := sys.RegisterView("V", plan, ivm.ModeID); err != nil {
					t.Fatalf("trial %d: register %s/%s: %v\nplan: %s", trial, e.name, s.name, err, plan)
				}
				cells[ei] = append(cells[ei], &cell{label: e.name + "/" + s.name, d: d, sys: sys,
					rng: rand.New(rand.NewSource(seed * 13)), next: 50})
			}
		}

		for round := 0; round < 4; round++ {
			for _, row := range cells {
				for _, c := range row {
					randomMods(c.d, c.rng, &c.next)
					c.d.Counter().Reset()
					rep, err := c.sys.MaintainAll()
					if err != nil {
						t.Fatalf("trial %d round %d %s: %v\nplan: %s", trial, round, c.label, err, plan)
					}
					if len(rep) != 1 {
						t.Fatalf("trial %d round %d %s: %d reports", trial, round, c.label, len(rep))
					}
					c.rep, c.count = rep[0], *c.d.Counter()
				}
			}
			// Compiled cells must match their engine's reference exactly:
			// reports, steps, counters.
			for _, row := range cells {
				ref := row[0]
				for _, c := range row[1:] {
					samePhases(t, c.label, ref.rep, c.rep)
					if ref.count != c.count {
						t.Fatalf("trial %d round %d %s: counters differ:\n %s %v\n %s %v\nplan: %s",
							trial, round, c.label, ref.label, ref.count, c.label, c.count, plan)
					}
				}
			}
			// All cells — every engine, every strategy — must agree on the
			// final view contents.
			refView := viewState(t, cells[0][0].d, "V")
			for _, row := range cells {
				for _, c := range row {
					if v := viewState(t, c.d, "V"); !refView.EqualSet(v) {
						t.Fatalf("trial %d round %d %s: states diverge:\n %s:\n%v\n %s:\n%v\nplan: %s",
							trial, round, c.label, cells[0][0].label, refView.Sorted(), c.label, v.Sorted(), plan)
					}
				}
			}
		}
	}
}
