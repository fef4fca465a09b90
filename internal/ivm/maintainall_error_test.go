package ivm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// registerSumView registers a per-group SUM view over src (a base table
// or a prior view), projected to bare output names so further views can
// stack on it. White-box so tests can reach into s.views afterwards.
func registerSumView(t *testing.T, s *System, name, src, grpCol, valCol string) *View {
	t.Helper()
	tab, err := s.DB.Table(src)
	if err != nil {
		t.Fatalf("table %q: %v", src, err)
	}
	g := algebra.NewGroupBy(algebra.NewScan(src, "", tab.Schema()),
		[]string{src + "." + grpCol},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C(src + "." + valCol), As: "total"}})
	plan := algebra.NewProject(g, []algebra.ProjItem{
		{E: expr.C(src + "." + grpCol), As: "grp"},
		{E: expr.C("total"), As: "total"},
	})
	v, err := s.RegisterView(name, plan, ModeID)
	if err != nil {
		t.Fatalf("register %q: %v", name, err)
	}
	return v
}

// TestMaintainAllSurfacesLateRegisteredLowerLevelError pins the failure
// contract when registration order and level order disagree: "B" (level
// 1) registers before "C" (level 0), and both fail after their last step.
// The level schedule runs A and C, stops at level 0 and skips B (nil report,
// nil error), so C carries the round's only error — MaintainAll must return
// it naming C, at every Workers with the same access counts, keep the base
// log for retry, and drop the derived logs the maintained parent "A"
// produced before the round collapsed (a kept derived log would feed B
// duplicates on the retried round). The retry must then leave every view
// equal to its recomputation: A's applies were rolled back with the round,
// so the retry applies them again and B sees them.
func TestMaintainAllSurfacesLateRegisteredLowerLevelError(t *testing.T) {
	var wantErr string
	var wantCost rel.CostCounter
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := db.New()
			item := d.MustCreateTable("item", rel.NewSchema([]string{"id", "grp", "val"}, []string{"id"}))
			for i := 0; i < 8; i++ {
				item.MustInsert(rel.Int(int64(i)),
					rel.String(fmt.Sprintf("g%d", i%2)), rel.Int(int64(i)))
			}
			s := NewSystem(d)
			registerSumView(t, s, "A", "item", "grp", "val")
			b := registerSumView(t, s, "B", "A", "grp", "total")  // level 1, registered before C
			c := registerSumView(t, s, "C", "item", "grp", "val") // level 0, registered last
			restoreB := failAtStep(b, len(b.Script.Steps))
			restoreC := failAtStep(c, len(c.Script.Steps))

			if err := d.Insert("item", rel.Tuple{rel.Int(100), rel.String("g0"), rel.Int(7)}); err != nil {
				t.Fatalf("insert: %v", err)
			}
			s.Workers = workers
			d.Counter().Reset()
			_, err := s.MaintainAll()
			if err == nil {
				t.Fatal("MaintainAll swallowed the failing view's error behind a skipped higher-level view")
			}
			if !strings.HasPrefix(err.Error(), "ivm: view C: ") {
				t.Fatalf("the round's error does not name C: %v", err)
			}
			if workers == 1 {
				wantErr, wantCost = err.Error(), *d.Counter()
			} else if err.Error() != wantErr || *d.Counter() != wantCost {
				t.Fatalf("workers=%d failed with %q charging %v; workers=1 with %q charging %v",
					workers, err, *d.Counter(), wantErr, wantCost)
			}
			if len(d.Log()) == 0 {
				t.Fatal("failed round must keep the base log for retry")
			}
			for _, name := range s.ViewNames() {
				if mods := d.DerivedLog(name); len(mods) != 0 {
					t.Fatalf("failed round left %d derived-log entries on %q", len(mods), name)
				}
			}
			restoreB()
			restoreC()
			if _, err := s.MaintainAll(); err != nil {
				t.Fatalf("retry: %v", err)
			}
			for _, name := range s.ViewNames() {
				if err := s.CheckConsistent(name); err != nil {
					t.Fatalf("after the retry: %v", err)
				}
			}
		})
	}
}

// sumViewsDB is the item table of the tests below under S (level 0), A (level
// 0, a cascade source) and B (level 1, over A), registered in that order.
func sumViewsDB(t *testing.T, workers int) (*db.Database, *System) {
	t.Helper()
	d := db.New()
	item := d.MustCreateTable("item", rel.NewSchema([]string{"id", "grp", "val"}, []string{"id"}))
	for i := 0; i < 12; i++ {
		item.MustInsert(rel.Int(int64(i)), rel.String(fmt.Sprintf("g%d", i%3)), rel.Int(int64(i)))
	}
	s := NewSystem(d)
	s.Workers = workers
	registerSumView(t, s, "S", "item", "grp", "val")
	registerSumView(t, s, "A", "item", "grp", "val")
	registerSumView(t, s, "B", "A", "grp", "total")
	return d, s
}

func sortedState(t *testing.T, d *db.Database, name string) string {
	t.Helper()
	tab, err := d.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(tab.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost).Sorted().Tuples)
}

// TestFailedRoundIsRetriedAgainstAFreshFeed fails a round midway — S has
// been maintained, A fails just before its first APPLY, B is never reached —
// lets the log grow, and retries. The retry must compact the log as it is
// then: a diff feed kept from the failed round would leave out what arrived
// since, and the views would miss it. The retried system must equal a twin
// that never failed and saw the same modifications in one round: the same
// view states, access counts and applied instances — for S too, whose
// applies the failed round rolled back. TestFailedRoundRollsBack fails every
// view at every step; this test is about the log that grows in between.
func TestFailedRoundIsRetriedAgainstAFreshFeed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			refDB, ref := sumViewsDB(t, workers)
			d, s := sumViewsDB(t, workers)
			both := func(f func(*db.Database) error) {
				t.Helper()
				for _, x := range []*db.Database{refDB, d} {
					if err := f(x); err != nil {
						t.Fatal(err)
					}
				}
			}
			both(func(x *db.Database) error {
				return x.Insert("item", rel.Tuple{rel.Int(100), rel.String("g0"), rel.Int(7)})
			})
			both(func(x *db.Database) error {
				_, err := x.Update("item", []rel.Value{rel.Int(1)}, []string{"val"}, []rel.Value{rel.Int(50)})
				return err
			})

			// A fails just before its first APPLY: its compute steps ran, none
			// of its applies did.
			a := s.views["A"]
			restore := failAtStep(a, firstApply(t, a))
			if _, err := s.MaintainAll(); err == nil {
				t.Fatal("the sabotaged round succeeded")
			}
			restore()

			// The log grows between the failure and the retry.
			both(func(x *db.Database) error {
				_, err := x.Delete("item", []rel.Value{rel.Int(2)})
				return err
			})
			both(func(x *db.Database) error {
				return x.Insert("item", rel.Tuple{rel.Int(101), rel.String("g9"), rel.Int(3)})
			})

			refDB.Counter().Reset()
			d.Counter().Reset()
			want, err := ref.MaintainAll()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.MaintainAll()
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			for i, name := range []string{"S", "A", "B"} {
				if err := s.CheckConsistent(name); err != nil {
					t.Fatalf("after the retry: %v", err)
				}
				if g, w := sortedState(t, d, name), sortedState(t, refDB, name); g != w {
					t.Fatalf("%s after the retry:\n %s\nfault-free:\n %s", name, g, w)
				}
				if got[i].Phases.Cost != want[i].Phases.Cost || got[i].DiffTuples != want[i].DiffTuples {
					t.Fatalf("%s: retried round cost %v over %d diff tuples, fault-free %v over %d",
						name, got[i].Phases.Cost, got[i].DiffTuples, want[i].Phases.Cost, want[i].DiffTuples)
				}
				if g, w := fmt.Sprint(appliedRows(got[i])), fmt.Sprint(appliedRows(want[i])); g != w {
					t.Fatalf("%s: retried round applied %s, fault-free %s", name, g, w)
				}
			}
			if len(d.Log()) != 0 {
				t.Fatalf("the retried round left %d log entries", len(d.Log()))
			}
		})
	}
}

// failAtStep inserts a compute step reading a binding nothing produces in
// front of v's step k, so v's next maintenance run fails there; the returned
// func puts the script back.
func failAtStep(v *View, k int) (restore func()) {
	steps := v.Script.Steps
	boom := &ComputeStep{Name: "boom", Ph: PhaseViewCompute,
		Plan: algebra.NewRelRef("unbound-boom", rel.NewSchema([]string{"k"}, []string{"k"}))}
	if err := CompileScript(&Script{Steps: []Step{boom}}); err != nil {
		panic(err)
	}
	v.Script.Steps = append(append(append([]Step(nil), steps[:k]...), boom), steps[k:]...)
	return func() { v.Script.Steps = steps }
}

// firstApply is the index of v's first APPLY step.
func firstApply(t *testing.T, v *View) int {
	t.Helper()
	for i, st := range v.Script.Steps {
		if _, ok := st.(*ApplyStep); ok {
			return i
		}
	}
	t.Fatalf("%s has no APPLY step", v.Name)
	return -1
}

// TestFailedStepStopsItsScript fails A at each step k of its script in a
// round that also maintains S beside it (level 0) and B over it (level 1),
// with Workers 1 and 4. A view's steps run in script order on one goroutine
// whatever Workers is, so nothing after step k may run: when k is at or
// before A's first APPLY no APPLY of A lands, and at every k the tables and
// the access counts of the failed round are the same at both widths. The
// tables are read in the UnpinBegin hook, when maintenance has stopped and
// the rollback has not yet run; once MaintainAll returns, every table must
// hold its state from before the round again.
func TestFailedStepStopsItsScript(t *testing.T) {
	_, probe := sumViewsDB(t, 1)
	nSteps, first := len(probe.views["A"].Script.Steps), firstApply(t, probe.views["A"])
	for k := 0; k <= nSteps; k++ {
		var want []string
		var wantCost rel.CostCounter
		for _, workers := range []int{1, 4} {
			ctx := fmt.Sprintf("k=%d workers=%d", k, workers)
			d, s := sumViewsDB(t, workers)
			tables := viewAndCacheTables(s)
			ofA := map[string]bool{"A": true} // A and its caches
			for _, c := range s.views["A"].Script.Caches {
				ofA[c.Name] = true
			}
			if err := d.Insert("item", rel.Tuple{rel.Int(100), rel.String("g0"), rel.Int(7)}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Update("item", []rel.Value{rel.Int(1)}, []string{"val"}, []rel.Value{rel.Int(50)}); err != nil {
				t.Fatal(err)
			}
			before := tableStates(t, d, tables)
			var got []string
			s.Hooks.UnpinBegin = func() { got = tableStates(t, d, tables) }
			failAtStep(s.views["A"], k)
			d.Counter().Reset()
			if _, err := s.MaintainAll(); err == nil {
				t.Fatalf("%s: the sabotaged round succeeded", ctx)
			}
			if after := tableStates(t, d, tables); !slices.Equal(after, before) {
				t.Fatalf("%s: the failed round was not rolled back:\n %v\nbefore the round:\n %v", ctx, after, before)
			}
			for i, name := range tables {
				if k <= first && ofA[name] && got[i] != before[i] {
					t.Fatalf("%s: an APPLY of A landed after its failing step:\n %s\nbefore the round:\n %s",
						ctx, got[i], before[i])
				}
			}
			if workers == 1 {
				want, wantCost = got, *d.Counter()
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: state when the failed round stopped\n %v\nworkers=1:\n %v", ctx, got, want)
			}
			if *d.Counter() != wantCost {
				t.Fatalf("%s: the failed round charged %v, workers=1 %v", ctx, *d.Counter(), wantCost)
			}
		}
	}
}

// appliedRows renders the rows of a report's applied instances, sorted: a
// row a rollback restored is back at the tail of its index chains, so a
// retried round may meet it in another order than a twin that never failed.
func appliedRows(r *Report) []string {
	var out []string
	for _, inst := range r.Phases.Applied {
		for _, row := range inst.Rows.Tuples {
			out = append(out, inst.Schema.String()+" "+rel.TupleKey(row))
		}
	}
	slices.Sort(out)
	return out
}

// TestRefilledLogOfEqualLengthIsCompactedAgain runs rounds whose logs all
// have the same length — one modification each, of a different row: an
// update, or an insert opening a new group — through MaintainAll. The log is
// a slice that is dropped and regrown, so nothing about it (its length, where
// its backing array sits) says whether it was compacted before; anything that
// remembered a compaction by such a mark would serve the previous round's
// change here, and the views would lag one round behind. The inserts also
// cover the cascade: B's Δ-script keeps a new group of A only if it is absent
// from A's pre-state, which must still be the round-start state after A
// applied it.
func TestRefilledLogOfEqualLengthIsCompactedAgain(t *testing.T) {
	d, s := sumViewsDB(t, 0)
	for round := 0; round < 12; round++ {
		var err error
		if round%2 == 0 {
			err = d.Insert("item", rel.Tuple{rel.Int(100 + int64(round)), rel.String(fmt.Sprintf("new%d", round)), rel.Int(int64(round))})
		} else {
			_, err = d.Update("item", []rel.Value{rel.Int(int64(round))}, []string{"val"}, []rel.Value{rel.Int(1000 + int64(round))})
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Log()) != 1 {
			t.Fatalf("round %d: log has %d entries, want 1", round, len(d.Log()))
		}
		if _, err := s.MaintainAll(); err != nil {
			t.Fatal(err)
		}
		for _, name := range s.ViewNames() {
			if err := s.CheckConsistent(name); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
