package ivm

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"idivm/internal/db"
	"idivm/internal/rel"
)

// abcDB registers, in the given order, the three views of the failed-round
// tests over one item table: A, a SUM over item and a cascade source; B, a
// SUM over A (so A must come before it); C, a SUM over item beside A.
func abcDB(t *testing.T, order []string, workers int) (*db.Database, *System) {
	t.Helper()
	d := db.New()
	item := d.MustCreateTable("item", rel.NewSchema([]string{"id", "grp", "val"}, []string{"id"}))
	for i := 0; i < 12; i++ {
		item.MustInsert(rel.Int(int64(i)), rel.String(fmt.Sprintf("g%d", i%3)), rel.Int(int64(i)))
	}
	s := NewSystem(d)
	s.Workers = workers
	for _, name := range order {
		if name == "B" {
			registerSumView(t, s, name, "A", "grp", "total")
		} else {
			registerSumView(t, s, name, "item", "grp", "val")
		}
	}
	return d, s
}

// abcRound logs one round on item: every kind of modification, over three
// groups, one of them new.
func abcRound(t *testing.T, d *db.Database) {
	t.Helper()
	if err := d.Insert("item", rel.Tuple{rel.Int(100), rel.String("g0"), rel.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Update("item", []rel.Value{rel.Int(1)}, []string{"val"}, []rel.Value{rel.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete("item", []rel.Value{rel.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("item", rel.Tuple{rel.Int(101), rel.String("g9"), rel.Int(3)}); err != nil {
		t.Fatal(err)
	}
}

// viewAndCacheTables lists every view of s and its caches, in registration
// order.
func viewAndCacheTables(s *System) []string {
	var out []string
	for _, name := range s.ViewNames() {
		out = append(out, name)
		for _, c := range s.views[name].Script.Caches {
			out = append(out, c.Name)
		}
	}
	return out
}

// tableStates renders the post-state of the named tables, uncharged.
func tableStates(t *testing.T, d *db.Database, names []string) []string {
	t.Helper()
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = name + " " + sortedState(t, d, name)
	}
	return out
}

// failAndRetry runs one failed round and its retry: the views of order at
// workers, failing at step k of view fail (k = len(steps): after its last
// step), against a twin that never fails. After the failure every view and
// cache table must hold its state from before the round, the base log must be
// kept, no derived log may survive and no epoch the round opened may stay
// open. After the retry every view must equal its recomputation and the twin,
// with the twin's per-view access counts, diff tuple counts and applied
// instances (as sets, see appliedRows).
func failAndRetry(t *testing.T, order []string, fail string, k, workers int) {
	t.Helper()
	ctx := fmt.Sprintf("order %s, %s fails at step %d, workers %d", strings.Join(order, ","), fail, k, workers)
	refDB, ref := abcDB(t, order, workers)
	d, s := abcDB(t, order, workers)
	abcRound(t, refDB)
	abcRound(t, d)
	tables := viewAndCacheTables(s)
	before := tableStates(t, d, tables)
	restore := failAtStep(s.views[fail], k)
	if _, err := s.MaintainAll(); err == nil {
		t.Fatalf("%s: the sabotaged round succeeded", ctx)
	}
	restore()
	if got := tableStates(t, d, tables); !slices.Equal(got, before) {
		t.Fatalf("%s: the failed round was not rolled back:\n %v\nbefore the round:\n %v", ctx, got, before)
	}
	if len(d.Log()) == 0 {
		t.Fatalf("%s: the failed round dropped the base log", ctx)
	}
	for _, name := range tables {
		if mods := d.DerivedLog(name); len(mods) != 0 {
			t.Fatalf("%s: the failed round left %d derived-log entries on %s", ctx, len(mods), name)
		}
		if tab, _ := d.Table(name); tab.InEpoch() && !d.DerivedLoggingEnabled(name) {
			t.Fatalf("%s: the failed round left %s in an epoch", ctx, name)
		}
	}

	want, err := ref.MaintainAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MaintainAll()
	if err != nil {
		t.Fatalf("%s: retry: %v", ctx, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the retry reported %d views, the twin %d", ctx, len(got), len(want))
	}
	for i, name := range s.ViewNames() {
		if err := s.CheckConsistent(name); err != nil {
			t.Fatalf("%s: after the retry: %v", ctx, err)
		}
		if g, w := sortedState(t, d, name), sortedState(t, refDB, name); g != w {
			t.Fatalf("%s: %s after the retry:\n %s\nfault-free:\n %s", ctx, name, g, w)
		}
		if got[i].Phases.Cost != want[i].Phases.Cost || got[i].DiffTuples != want[i].DiffTuples {
			t.Fatalf("%s: %s: retried round cost %v over %d diff tuples, fault-free %v over %d",
				ctx, name, got[i].Phases.Cost, got[i].DiffTuples, want[i].Phases.Cost, want[i].DiffTuples)
		}
		if g, w := appliedRows(got[i]), appliedRows(want[i]); !slices.Equal(g, w) {
			t.Fatalf("%s: %s: retried round applied %v, fault-free %v", ctx, name, g, w)
		}
	}
	if tabs := tableStates(t, d, tables); !slices.Equal(tabs, tableStates(t, refDB, tables)) {
		t.Fatalf("%s: caches differ from the fault-free twin after the retry", ctx)
	}
}

// TestFailedRoundRollsBack fails each of A, B and C at every step k of its
// script (and after the last), in both registration orders a cascade allows
// — A, B, C and A, C, B — at Workers 1, 4 and the default, and checks the
// failed round and its retry with failAndRetry: a failed round leaves every
// view and cache table as it was, and the retry is the fault-free round. It
// first replays the minimised seeds in testdata/failed_round_seeds.txt, the
// cases that retried wrongly before a failed round rolled back.
func TestFailedRoundRollsBack(t *testing.T) {
	workersList := []int{1, 4, 0}
	for _, seed := range failedRoundSeeds(t) {
		_, probe := abcDB(t, seed.order, 1)
		k := seed.step
		if k < 0 {
			k = len(probe.views[seed.fail].Script.Steps)
		}
		for _, workers := range workersList {
			failAndRetry(t, seed.order, seed.fail, k, workers)
		}
	}
	for _, order := range [][]string{{"A", "B", "C"}, {"A", "C", "B"}} {
		_, probe := abcDB(t, order, 1)
		for _, fail := range order {
			for k := 0; k <= len(probe.views[fail].Script.Steps); k++ {
				for _, workers := range workersList {
					failAndRetry(t, order, fail, k, workers)
				}
			}
		}
	}
}

// failedRoundSeed is one line of testdata/failed_round_seeds.txt.
type failedRoundSeed struct {
	order []string
	fail  string
	step  int // -1: after the failing view's last step
}

func failedRoundSeeds(t *testing.T) []failedRoundSeed {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "failed_round_seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seeds []failedRoundSeed
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			t.Fatalf("malformed seed %q: want <order> <failing view> <step>", sc.Text())
		}
		seed := failedRoundSeed{order: strings.Split(fields[0], ","), fail: fields[1], step: -1}
		if fields[2] != "end" {
			if seed.step, err = strconv.Atoi(fields[2]); err != nil {
				t.Fatalf("malformed seed %q: %v", sc.Text(), err)
			}
		}
		seeds = append(seeds, seed)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no failed-round seeds")
	}
	return seeds
}
