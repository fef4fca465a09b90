package ivm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// assertReportsMatch requires the parallel run's reports to be exactly the
// sequential run's: same views in the same order, same diff-tuple counts,
// and identical per-phase and per-step access counts. Only wall-clock
// fields (Duration, Phases.Time) are allowed to differ.
func assertReportsMatch(t *testing.T, ctx string, seq, par []*ivm.Report) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d sequential reports vs %d parallel", ctx, len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a.View != b.View || a.DiffTuples != b.DiffTuples {
			t.Fatalf("%s: report %d: seq %s (%d diff tuples) vs par %s (%d diff tuples)",
				ctx, i, a.View, a.DiffTuples, b.View, b.DiffTuples)
		}
		if a.Phases.Cost != b.Phases.Cost {
			t.Errorf("%s: view %s phase costs differ:\n seq %v\n par %v",
				ctx, a.View, a.Phases.Cost, b.Phases.Cost)
		}
		if a.Phases.RowsTouched != b.Phases.RowsTouched ||
			a.Phases.ViewDiffTuples != b.Phases.ViewDiffTuples ||
			a.Phases.ViewRowsTouched != b.Phases.ViewRowsTouched {
			t.Errorf("%s: view %s row accounting differs: seq (%d,%d,%d) par (%d,%d,%d)",
				ctx, a.View,
				a.Phases.RowsTouched, a.Phases.ViewDiffTuples, a.Phases.ViewRowsTouched,
				b.Phases.RowsTouched, b.Phases.ViewDiffTuples, b.Phases.ViewRowsTouched)
		}
		if len(a.Phases.Steps) != len(b.Phases.Steps) {
			t.Fatalf("%s: view %s: %d sequential step costs vs %d parallel",
				ctx, a.View, len(a.Phases.Steps), len(b.Phases.Steps))
		}
		for j := range a.Phases.Steps {
			// Time is a clock reading; everything else is schedule-independent.
			sa, sb := a.Phases.Steps[j], b.Phases.Steps[j]
			if sa.Step != sb.Step || sa.Cost != sb.Cost || sa.Rows != sb.Rows {
				t.Errorf("%s: view %s step %d cost differs:\n seq %v\n par %v",
					ctx, a.View, j, a.Phases.Steps[j], b.Phases.Steps[j])
			}
		}
	}
}

// assertTablesMatch compares the post-state of the named tables across the
// two databases, reading through throwaway counter handles so inspection
// doesn't perturb the access counts under comparison.
func assertTablesMatch(t *testing.T, ctx string, seqDB, parDB *db.Database, names []string) {
	t.Helper()
	for _, name := range names {
		ta, err := seqDB.Table(name)
		if err != nil {
			t.Fatalf("%s: sequential db lost table %q: %v", ctx, name, err)
		}
		tb, err := parDB.Table(name)
		if err != nil {
			t.Fatalf("%s: parallel db lost table %q: %v", ctx, name, err)
		}
		ra := ta.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)
		rb := tb.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)
		if !ra.EqualSet(rb) {
			t.Errorf("%s: table %q diverged:\n seq (%d rows) %v\n par (%d rows) %v",
				ctx, name, ra.Len(), ra.Sorted(), rb.Len(), rb.Sorted())
		}
	}
}

// registerTwin registers the same seeded random plan under the same name on
// both systems and returns the view's table names (view + caches).
func registerTwin(t *testing.T, seqSys, parSys *ivm.System, name string, seed int64, mode ivm.Mode) []string {
	t.Helper()
	seqPlan := (&planGen{rng: rand.New(rand.NewSource(seed)), d: seqSys.DB}).gen()
	parPlan := (&planGen{rng: rand.New(rand.NewSource(seed)), d: parSys.DB}).gen()
	if _, err := seqSys.RegisterView(name, seqPlan, mode); err != nil {
		t.Fatalf("register %s sequential: %v\nplan: %s", name, err, seqPlan)
	}
	v, err := parSys.RegisterView(name, parPlan, mode)
	if err != nil {
		t.Fatalf("register %s parallel: %v\nplan: %s", name, err, parPlan)
	}
	tables := []string{name}
	for _, c := range v.Script.Caches {
		tables = append(tables, c.Name)
	}
	return tables
}

// Stress for the view-level fan-out: ~16 views maintained concurrently at
// varying worker counts must agree — state, reports, and counters — with a
// sequential twin. The race detector watches the shared base tables, the
// lazy secondary-index builds, and the counter shard merges.
func TestMaintainAllParallelStress(t *testing.T) {
	const nViews = 16
	workersList := []int{2, 4, 8}
	if testing.Short() {
		workersList = []int{4}
	}
	for _, workers := range workersList {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seqDB, parDB := fig2DB(t), fig2DB(t)
			seqSys, parSys := ivm.NewSystem(seqDB), ivm.NewSystem(parDB)
			seqSys.Workers, parSys.Workers = 1, workers
			var tables []string
			var names []string
			for i := 0; i < nViews; i++ {
				mode := ivm.ModeID
				if i%2 == 1 {
					mode = ivm.ModeTuple
				}
				name := fmt.Sprintf("V%02d", i)
				names = append(names, name)
				tables = append(tables, registerTwin(t, seqSys, parSys, name, int64(9000+i), mode)...)
			}

			rngSeq := rand.New(rand.NewSource(31))
			rngPar := rand.New(rand.NewSource(31))
			nextSeq, nextPar := 50, 50
			rounds := 3
			if testing.Short() {
				rounds = 2
			}
			for round := 0; round < rounds; round++ {
				ctx := fmt.Sprintf("workers=%d round %d", workers, round)
				randomMods(seqDB, rngSeq, &nextSeq)
				randomMods(parDB, rngPar, &nextPar)
				seqDB.Counter().Reset()
				parDB.Counter().Reset()
				seqReps, err := seqSys.MaintainAll()
				if err != nil {
					t.Fatalf("%s: sequential: %v", ctx, err)
				}
				parReps, err := parSys.MaintainAll()
				if err != nil {
					t.Fatalf("%s: parallel: %v", ctx, err)
				}
				assertReportsMatch(t, ctx, seqReps, parReps)
				if sc, pc := *seqDB.Counter(), *parDB.Counter(); sc != pc {
					t.Fatalf("%s: database counters diverged:\n seq %v\n par %v", ctx, sc, pc)
				}
				assertTablesMatch(t, ctx, seqDB, parDB, tables)
				for _, name := range names {
					if err := parSys.CheckConsistent(name); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
				}
			}
		})
	}
}
