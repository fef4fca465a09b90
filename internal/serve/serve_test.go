package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/serve"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
	"idivm/internal/workload"
)

const testView = "v"

// joinQuery reads parts and the served view in one snapshot: every part in
// the view beside the price the view holds for it. The round-end advance
// refreezes the two tables one after the other, so a read that overlaps it
// without the seqlock's retry sees parts from one round and v from another.
const joinQuery = "SELECT parts.pid AS pid, parts.price AS now, v.price AS seen FROM parts JOIN v ON parts.pid = devices_parts.pid"

// flushOpts never cuts a batch on its own: commits happen only on Flush
// (or Close), which is how the deterministic tests pin batch composition.
var flushOpts = serve.Options{MaxBatch: 1 << 20, MaxDelay: time.Hour}

func testParams() workload.Params {
	return workload.Params{Parts: 200, Devices: 200, Selectivity: 20, Fanout: 3, Joins: 2, Seed: 11}
}

// engines are the storage engines the engine-matrix tests run on: mem, and
// the hash-partitioned test engine, whose tables advance their epochs shard
// by shard. A nil mk is mem: the dataset as workload.Build returns it.
var engines = []struct {
	name string
	mk   func() storage.Engine
}{
	{"mem", nil},
	{"sharded4", func() storage.Engine { return storagetest.Sharded(4) }},
}

// build builds the test dataset on mk's engine.
func build(mk func() storage.Engine) *workload.Dataset {
	ds := workload.Build(testParams())
	if mk != nil {
		ds.DB = storagetest.Copy(ds.DB, mk())
	}
	return ds
}

// served is one dataset wired for serving: workload tables, a registered
// SPJ view, and a Server.
type served struct {
	ds  *workload.Dataset
	sys *ivm.System
	srv *serve.Server
}

func newServed(t testing.TB, opts serve.Options) *served {
	t.Helper()
	return newServedOn(t, nil, opts)
}

// newServedOn is newServed on mk's engine.
func newServedOn(t testing.TB, mk func() storage.Engine, opts serve.Options) *served {
	t.Helper()
	ds := build(mk)
	sys := ivm.NewSystem(ds.DB)
	if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
		t.Fatalf("RegisterView: %v", err)
	}
	ds.DB.Counter().Reset()
	srv := serve.New(ds.DB, sys, opts)
	t.Cleanup(func() { srv.Close() })
	return &served{ds: ds, sys: sys, srv: srv}
}

func fingerprint(r *rel.Relation) string { return r.Sorted().String() }

// mod is one scripted base-table modification, applied identically by the
// direct path (db.Database) and the served path (group-commit dispatcher).
type mod struct {
	kind  int // 0 insert, 1 update, 2 delete
	table string
	row   rel.Tuple
	key   []rel.Value
	attrs []string
	vals  []rel.Value
}

// genRounds scripts a deterministic multi-round write workload: price
// updates on stable parts, category flips on devices (which move rows in
// and out of the view), and part churn (each round deletes the previous
// round's inserts).
func genRounds(p workload.Params, rounds, perRound int) [][]mod {
	rng := rand.New(rand.NewSource(99))
	next := int64(p.Parts)
	var lastIns []int64
	out := make([][]mod, 0, rounds)
	for r := 0; r < rounds; r++ {
		var ms []mod
		for i := 0; i < perRound; i++ {
			pid := int64(rng.Intn(p.Parts))
			ms = append(ms, mod{kind: 1, table: "parts",
				key:   []rel.Value{rel.Int(pid)},
				attrs: []string{"price"},
				vals:  []rel.Value{rel.Int(int64(1 + rng.Intn(100)))}})
		}
		for i := 0; i < perRound/2; i++ {
			did := int64(rng.Intn(p.Devices))
			cat := "phone"
			if rng.Intn(2) == 0 {
				cat = "tablet"
			}
			ms = append(ms, mod{kind: 1, table: "devices",
				key:   []rel.Value{rel.Int(did)},
				attrs: []string{"category"},
				vals:  []rel.Value{rel.String(cat)}})
		}
		for _, pid := range lastIns {
			ms = append(ms, mod{kind: 2, table: "parts", key: []rel.Value{rel.Int(pid)}})
		}
		var ins []int64
		for i := 0; i < perRound/4+1; i++ {
			pid := next
			next++
			ins = append(ins, pid)
			ms = append(ms, mod{kind: 0, table: "parts",
				row: rel.Tuple{rel.Int(pid), rel.Int(int64(1 + rng.Intn(100)))}})
		}
		lastIns = ins
		out = append(out, ms)
	}
	return out
}

// applyDirect drives one round through the catalog and a maintenance
// round, the single-threaded reference path.
func applyDirect(t testing.TB, d *db.Database, sys *ivm.System, ms []mod) {
	t.Helper()
	for _, m := range ms {
		var err error
		switch m.kind {
		case 0:
			err = d.Insert(m.table, m.row)
		case 1:
			_, err = d.Update(m.table, m.key, m.attrs, m.vals)
		default:
			_, err = d.Delete(m.table, m.key)
		}
		if err != nil {
			t.Fatalf("direct %v: %v", m, err)
		}
	}
	if _, err := sys.MaintainAll(); err != nil {
		t.Fatalf("MaintainAll: %v", err)
	}
}

// enqueue hands every op of a round to the dispatcher.
func enqueue(srv *serve.Server, ms []mod) []*serve.Pending {
	pend := make([]*serve.Pending, len(ms))
	for i, m := range ms {
		switch m.kind {
		case 0:
			pend[i] = srv.EnqueueInsert(m.table, m.row)
		case 1:
			pend[i] = srv.EnqueueUpdate(m.table, m.key, m.attrs, m.vals)
		default:
			pend[i] = srv.EnqueueDelete(m.table, m.key)
		}
	}
	return pend
}

// applyServed drives one round through the dispatcher: enqueue every op,
// flush, and check each op's outcome.
func applyServed(t testing.TB, srv *serve.Server, ms []mod) {
	t.Helper()
	pend := enqueue(srv, ms)
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("op %d (%v): %v", i, ms[i], err)
		}
	}
}

// TestSnapshotDuringHeldRound proves the acceptance criterion that
// snapshot reads return without waiting for an in-flight round: a hook
// holds a maintenance round open after its epochs are pinned, and the
// test reads the view and queries a base table while the round is
// provably still in flight. The reads must observe exactly the pre-round
// state.
func TestSnapshotDuringHeldRound(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			ds := build(eng.mk)
			sys := ivm.NewSystem(ds.DB)
			if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
				t.Fatalf("RegisterView: %v", err)
			}
			started := make(chan struct{})
			release := make(chan struct{})
			var hold sync.Once
			// Installed before serve.New so the server composes around it.
			sys.Hooks = ivm.RoundHooks{RoundBegin: func() {
				hold.Do(func() {
					close(started)
					<-release
				})
			}}
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }

			srv := serve.New(ds.DB, sys, serve.Options{MaxBatch: 8, MaxDelay: time.Millisecond})
			defer srv.Close()
			// Deferred after Close registration so it runs first: Close
			// must never wait on a still-held round.
			defer unblock()

			before, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot: %v", err)
			}
			newPid := int64(1_000_000)
			pend := srv.EnqueueInsert("parts", rel.Tuple{rel.Int(newPid), rel.Int(42)})
			<-started // the round is pinned and provably still open

			got, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot during round: %v", err)
			}
			if fingerprint(got) != fingerprint(before) {
				t.Fatalf("mid-round snapshot differs from last completed round")
			}
			q, err := srv.QuerySnapshot("SELECT pid, price FROM parts")
			if err != nil {
				t.Fatalf("QuerySnapshot during round: %v", err)
			}
			if containsPid(q, newPid) {
				t.Fatalf("mid-round base snapshot leaked the in-flight insert")
			}

			unblock()
			if err := pend.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			q, err = srv.QuerySnapshot("SELECT pid, price FROM parts")
			if err != nil {
				t.Fatalf("QuerySnapshot after round: %v", err)
			}
			if !containsPid(q, newPid) {
				t.Fatalf("post-round snapshot missing the committed insert")
			}
		})
	}
}

func containsPid(r *rel.Relation, pid int64) bool {
	i := r.Schema.Index("pid")
	if i < 0 {
		return false
	}
	for _, tp := range r.Tuples {
		if tp[i].Kind == rel.KindInt && tp[i].AsInt() == pid {
			return true
		}
	}
	return false
}

// counterRun is the outcome of one scripted workload execution.
type counterRun struct {
	counter rel.CostCounter
	viewFP  string
}

func runDirect(t *testing.T, mk func() storage.Engine, roundsMods [][]mod) counterRun {
	t.Helper()
	ds := build(mk)
	sys := ivm.NewSystem(ds.DB)
	if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
		t.Fatalf("RegisterView: %v", err)
	}
	ds.DB.Counter().Reset()
	for _, ms := range roundsMods {
		applyDirect(t, ds.DB, sys, ms)
	}
	vt, err := ds.DB.Table(testView)
	if err != nil {
		t.Fatal(err)
	}
	return counterRun{counter: *ds.DB.Counter(), viewFP: fingerprint(vt.Relation(rel.StatePost))}
}

func runServed(t *testing.T, mk func() storage.Engine, roundsMods [][]mod, readers int) counterRun {
	t.Helper()
	s := newServedOn(t, mk, flushOpts)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test reader goroutines hammering snapshots
		go hammer(&wg, s.srv, stop, nil, nil)
	}
	for _, ms := range roundsMods {
		applyServed(t, s.srv, ms)
	}
	close(stop)
	wg.Wait()
	vt, err := s.ds.DB.Table(testView)
	if err != nil {
		t.Fatal(err)
	}
	run := counterRun{counter: *s.ds.DB.Counter(), viewFP: fingerprint(vt.Relation(rel.StatePost))}
	st := s.srv.Stats()
	if st.Batches != int64(len(roundsMods)) {
		t.Fatalf("Batches = %d, want %d (one per Flush)", st.Batches, len(roundsMods))
	}
	return run
}

// hammer loops snapshot reads until stop closes, optionally recording the
// deduplicated fingerprints it observed. A named function rather than a
// closure so it owns its state outright.
func hammer(wg *sync.WaitGroup, srv *serve.Server, stop chan struct{}, viewOut, queryOut *[]string) {
	defer wg.Done()
	lastV, lastQ := "", ""
	for {
		select {
		case <-stop:
			return
		default:
		}
		v, err := srv.ViewSnapshot(testView)
		if err != nil {
			record(viewOut, "err: "+err.Error())
			return
		}
		if fp := fingerprint(v); fp != lastV {
			lastV = fp
			record(viewOut, fp)
		}
		q, err := srv.QuerySnapshot(joinQuery)
		if err != nil {
			record(queryOut, "err: "+err.Error())
			return
		}
		if fp := fingerprint(q); fp != lastQ {
			lastQ = fp
			record(queryOut, fp)
		}
	}
}

func record(out *[]string, s string) {
	if out != nil {
		*out = append(*out, s)
	}
}

// TestReadersDoNotPerturbCounters pins the acceptance criterion that
// maintenance access counters are byte-identical with and without
// concurrent snapshot readers — and identical to the direct
// single-threaded path, batch for batch.
func TestReadersDoNotPerturbCounters(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			roundsMods := genRounds(testParams(), 6, 8)
			direct := runDirect(t, eng.mk, roundsMods)
			quiet := runServed(t, eng.mk, roundsMods, 0)
			loud := runServed(t, eng.mk, roundsMods, 4)

			if quiet.counter != direct.counter {
				t.Errorf("served counters %+v differ from direct %+v", quiet.counter, direct.counter)
			}
			if loud.counter != quiet.counter {
				t.Errorf("counters with readers %+v differ from without %+v", loud.counter, quiet.counter)
			}
			if direct.viewFP != quiet.viewFP || quiet.viewFP != loud.viewFP {
				t.Errorf("final view states diverge across paths")
			}
		})
	}
}

// TestSnapshotTearFreedom is the race-enabled differential tear-check:
// readers hammer ViewSnapshot and a QuerySnapshot of joinQuery through
// randomized maintenance rounds, and every state they observe must be some
// round's exact post-state as recorded by a single-threaded replay of the
// same scripted batches. One table advances atomically; the join spans two,
// so it is the read that catches a seqlock that lets a read overlap the
// advance. Run under -race with -cpu 1,4 in CI.
func TestSnapshotTearFreedom(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			rounds := 25
			if testing.Short() {
				rounds = 8
			}
			roundsMods := genRounds(testParams(), rounds, 8)

			// Replay: record every legal state, including the initial one.
			legalView := map[string]bool{}
			legalQuery := map[string]bool{}
			replay := newServedOn(t, eng.mk, flushOpts)
			snapInto(t, replay.srv, legalView, legalQuery)
			for _, ms := range roundsMods {
				applyServed(t, replay.srv, ms)
				snapInto(t, replay.srv, legalView, legalQuery)
			}

			// Concurrent run: same batches, hammering readers.
			s := newServedOn(t, eng.mk, flushOpts)
			const readers = 3
			stop := make(chan struct{})
			var wg sync.WaitGroup
			obsView := make([][]string, readers)
			obsQuery := make([][]string, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				//ivmlint:allow gostmt — test reader goroutines hammering snapshots
				go hammer(&wg, s.srv, stop, &obsView[i], &obsQuery[i])
			}
			for _, ms := range roundsMods {
				applyServed(t, s.srv, ms)
			}
			close(stop)
			wg.Wait()

			for i := 0; i < readers; i++ {
				for _, fp := range obsView[i] {
					if !legalView[fp] {
						t.Fatalf("reader %d observed a torn view state:\n%s", i, clip(fp))
					}
				}
				for _, fp := range obsQuery[i] {
					if !legalQuery[fp] {
						t.Fatalf("reader %d observed a torn query state:\n%s", i, clip(fp))
					}
				}
			}
		})
	}
}

// TestSnapshotTearFreedomUnderFailedRounds is TestSnapshotTearFreedom with
// two more views: "c", a histogram over the served view (a cascade, one
// level up), and "f", a copy of the served view that fails after its last
// step in every third round. f shares the served view's level, so at the
// default Workers the two are maintained one after the other at -cpu 1 and
// side by side at -cpu 4; either way the served view has applied its diffs
// when the round fails, and the round must roll it back — else the next
// round re-applies them as no-ops and c never sees them. The failed round's
// writes stay logged and the next round maintains them with its own.
// Readers must only ever observe states of a replay that never fails, and
// the final state must be the replay's, with every view equal to its
// recomputation.
func TestSnapshotTearFreedomUnderFailedRounds(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			rounds := 12
			if testing.Short() {
				rounds = 6
			}
			roundsMods := genRounds(testParams(), rounds, 8)

			legalView := map[string]bool{}
			legalQuery := map[string]bool{}
			replay := newServedOn(t, eng.mk, flushOpts)
			snapInto(t, replay.srv, legalView, legalQuery)
			for _, ms := range roundsMods {
				applyServed(t, replay.srv, ms)
				snapInto(t, replay.srv, legalView, legalQuery)
			}

			ds := build(eng.mk)
			sys := ivm.NewSystem(ds.DB)
			for _, name := range []string{testView, "f"} {
				if _, err := sys.RegisterView(name, ds.SPJPlan(), ivm.ModeID); err != nil {
					t.Fatalf("RegisterView %s: %v", name, err)
				}
			}
			vt, _ := ds.DB.Table(testView)
			hist := algebra.NewGroupBy(algebra.NewScan(testView, "", vt.Schema()), []string{testView + ".price"},
				[]algebra.Agg{{Fn: algebra.AggCount, As: "n"}})
			if _, err := sys.RegisterView("c", hist, ivm.ModeID); err != nil {
				t.Fatalf("RegisterView c: %v", err)
			}
			srv := serve.New(ds.DB, sys, flushOpts)
			t.Cleanup(func() { srv.Close() })
			f, _ := sys.View("f")
			steps := f.Script.Steps
			boom := &ivm.ComputeStep{Name: "boom", Ph: ivm.PhaseViewCompute,
				Plan: algebra.NewRelRef("unbound-boom", rel.NewSchema([]string{"k"}, []string{"k"}))}
			if err := ivm.CompileScript(&ivm.Script{Steps: []ivm.Step{boom}}); err != nil {
				t.Fatal(err)
			}

			const readers = 3
			stop := make(chan struct{})
			var wg sync.WaitGroup
			obsView := make([][]string, readers)
			obsQuery := make([][]string, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				//ivmlint:allow gostmt — test reader goroutines hammering snapshots
				go hammer(&wg, srv, stop, &obsView[i], &obsQuery[i])
			}
			failed := 0
			for r, ms := range roundsMods {
				if r%3 != 1 || r == len(roundsMods)-1 {
					applyServed(t, srv, ms)
					continue
				}
				// The dispatcher reads the script only inside a round, and
				// Flush returns after the round: no round runs while it changes.
				f.Script.Steps = append(steps[:len(steps):len(steps)], boom)
				if err := applyServedFailing(srv, ms); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				f.Script.Steps = steps
				failed++
			}
			close(stop)
			wg.Wait()

			for i := 0; i < readers; i++ {
				for _, fp := range obsView[i] {
					if !legalView[fp] {
						t.Fatalf("reader %d observed a torn view state:\n%s", i, clip(fp))
					}
				}
				for _, fp := range obsQuery[i] {
					if !legalQuery[fp] {
						t.Fatalf("reader %d observed a torn query state:\n%s", i, clip(fp))
					}
				}
			}
			final, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replay.srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(final) != fingerprint(want) {
				t.Fatalf("after %d failed rounds the view differs from the replay's", failed)
			}
			for _, name := range sys.ViewNames() {
				if err := sys.CheckConsistent(name); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// applyServedFailing drives one round that must fail: Flush and every op
// report the round's error.
func applyServedFailing(srv *serve.Server, ms []mod) error {
	pend := enqueue(srv, ms)
	if err := srv.Flush(); err == nil {
		return errors.New("the sabotaged round succeeded")
	}
	for i, p := range pend {
		if p.Wait() == nil {
			return fmt.Errorf("op %d (%v) of the failed round reported success", i, ms[i])
		}
	}
	return nil
}

// TestRetainedSnapshotsSurviveRounds pins that a pre-state read never hands
// out an alias of live storage: a reader takes Scan(StatePre) of the view
// and of a logged base table, and a ViewSnapshot, between rounds — when
// the pinned epochs have seen no write and the pre-state is the live
// contents — and keeps re-reading all three while full rounds (updates,
// inserts, deletes, view applies, epoch advances) run beside it. Every
// retained result must stay what it was; under -race any write into the
// retained memory is reported as well.
func TestRetainedSnapshotsSurviveRounds(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			s := newServedOn(t, eng.mk, flushOpts)
			roundsMods := genRounds(testParams(), 6, 24)
			applyServed(t, s.srv, roundsMods[0]) // the epochs have advanced at least once

			scanPre := func(name string) []rel.Tuple {
				h, err := s.ds.DB.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				return h.WithCounter(nil).Scan(rel.StatePre)
			}
			snap, err := s.srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatal(err)
			}
			held := [][]rel.Tuple{scanPre(testView), scanPre("parts"), snap.Tuples}
			want := make([]string, len(held))
			render := func(rows []rel.Tuple) string {
				var b strings.Builder
				for _, r := range rows {
					b.WriteString(r.String())
				}
				return b.String()
			}
			for i, rows := range held {
				want[i] = render(rows)
			}

			stop := make(chan struct{})
			changed := make(chan int, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			//ivmlint:allow gostmt — test reader re-reading retained snapshots beside the rounds
			go func() {
				defer wg.Done()
				for {
					for i, rows := range held {
						if render(rows) != want[i] {
							select {
							case changed <- i:
							default:
							}
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			for _, ms := range roundsMods[1:] {
				applyServed(t, s.srv, ms)
			}
			close(stop)
			wg.Wait()
			select {
			case i := <-changed:
				t.Fatalf("retained result %d (0 view scan, 1 parts scan, 2 ViewSnapshot) was modified by a later round", i)
			default:
			}
			if now := render(scanPre("parts")); now == want[1] {
				t.Fatal("the rounds changed nothing in parts: the test exercised no write")
			}
		})
	}
}

func snapInto(t testing.TB, srv *serve.Server, legalView, legalQuery map[string]bool) {
	t.Helper()
	v, err := srv.ViewSnapshot(testView)
	if err != nil {
		t.Fatalf("ViewSnapshot: %v", err)
	}
	legalView[fingerprint(v)] = true
	q, err := srv.QuerySnapshot(joinQuery)
	if err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	if len(q.Tuples) == 0 {
		t.Fatal("joinQuery read no rows")
	}
	for _, r := range q.Tuples {
		if !r[1].Equal(r[2]) {
			t.Fatalf("between rounds, part %v costs %v and the view holds %v", r[0], r[1], r[2])
		}
	}
	legalQuery[fingerprint(q)] = true
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

// TestDispatcherBatching covers the three batch-cut triggers and the
// dispatcher's error and lifecycle semantics.
func TestDispatcherBatching(t *testing.T) {
	t.Run("maxbatch", func(t *testing.T) {
		s := newServed(t, serve.Options{MaxBatch: 3, MaxDelay: time.Hour})
		p1 := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(1)}, []string{"price"}, []rel.Value{rel.Int(7)})
		p2 := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(2)}, []string{"price"}, []rel.Value{rel.Int(8)})
		p3 := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(3)}, []string{"price"}, []rel.Value{rel.Int(9)})
		for i, p := range []*serve.Pending{p1, p2, p3} {
			if err := p.Wait(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if st := s.srv.Stats(); st.Batches != 1 || st.Ops != 3 {
			t.Fatalf("stats = %+v, want one 3-op batch", st)
		}
	})

	t.Run("maxdelay", func(t *testing.T) {
		s := newServed(t, serve.Options{MaxBatch: 1 << 20, MaxDelay: 2 * time.Millisecond})
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_001), rel.Int(1)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if st := s.srv.Stats(); st.Batches != 1 {
			t.Fatalf("stats = %+v, want the delay timer to have cut one batch", st)
		}
	})

	t.Run("immediate", func(t *testing.T) {
		s := newServed(t, serve.Options{MaxBatch: 1 << 20})
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_002), rel.Int(1)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_003), rel.Int(1)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if st := s.srv.Stats(); st.Batches != 2 {
			t.Fatalf("stats = %+v, want zero MaxDelay to commit each op alone", st)
		}
	})

	t.Run("flush-idle", func(t *testing.T) {
		s := newServed(t, flushOpts)
		if err := s.srv.Flush(); err != nil {
			t.Fatalf("idle Flush: %v", err)
		}
		if st := s.srv.Stats(); st.Batches != 0 || st.Rounds != 0 {
			t.Fatalf("stats = %+v, want an idle flush to skip the round", st)
		}
	})

	t.Run("op-errors", func(t *testing.T) {
		s := newServed(t, flushOpts)
		dup := s.srv.EnqueueInsert("parts", rel.Tuple{rel.Int(0), rel.Int(1)}) // pid 0 exists
		ok := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(1)}, []string{"price"}, []rel.Value{rel.Int(5)})
		missing := s.srv.EnqueueDelete("parts", []rel.Value{rel.Int(99_999_999)})
		if err := s.srv.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := dup.Wait(); err == nil {
			t.Fatal("duplicate insert resolved without error")
		}
		if err := ok.Wait(); err != nil {
			t.Fatalf("healthy op poisoned by its neighbor: %v", err)
		}
		if err := missing.Wait(); err != nil {
			t.Fatalf("delete of a missing key is not an error: %v", err)
		}
	})

	t.Run("close", func(t *testing.T) {
		s := newServed(t, flushOpts)
		pend := s.srv.EnqueueInsert("parts", rel.Tuple{rel.Int(9_004), rel.Int(1)})
		if err := s.srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := pend.Wait(); err != nil {
			t.Fatalf("queued op dropped by Close: %v", err)
		}
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_005), rel.Int(1)}); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("enqueue after Close = %v, want ErrClosed", err)
		}
		if err := s.srv.Flush(); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("Flush after Close = %v, want ErrClosed", err)
		}
		if err := s.srv.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		// The committed insert must be visible in the snapshot.
		q, err := s.srv.QuerySnapshot("SELECT pid, price FROM parts")
		if err != nil {
			t.Fatalf("QuerySnapshot after Close: %v", err)
		}
		if !containsPid(q, 9_004) {
			t.Fatal("Close did not commit the queued insert")
		}
	})
}

// TestCloseReturnsFinalRoundError fails the round Close commits on the fault
// engine: Close returns that round's error, the queued write's Wait returns
// the same error, and a second Close returns nil.
func TestCloseReturnsFinalRoundError(t *testing.T) {
	e := storagetest.New()
	s := newServedOn(t, func() storage.Engine { return e }, flushOpts)
	v, err := s.srv.ViewSnapshot(testView)
	if err != nil {
		t.Fatalf("ViewSnapshot: %v", err)
	}
	if len(v.Tuples) == 0 {
		t.Fatal("the served view is empty")
	}
	pid := v.Tuples[0][v.Schema.Index("devices_parts.pid")] // a part the view joins
	pend := s.srv.EnqueueUpdate("parts", []rel.Value{pid}, []string{"price"}, []rel.Value{rel.Int(12_345)})
	e.Arm(2) // the update is the first row written, the round's first view row the second
	err = s.srv.Close()
	if !errors.Is(err, storagetest.ErrInjected) {
		t.Fatalf("Close = %v, want the final round's injected fault", err)
	}
	if werr := pend.Wait(); werr != err {
		t.Fatalf("queued write's Wait = %v, Close = %v: want the same error", werr, err)
	}
	if err := s.srv.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestSnapshotUnknownView pins the error path.
func TestSnapshotUnknownView(t *testing.T) {
	s := newServed(t, flushOpts)
	if _, err := s.srv.ViewSnapshot("nope"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("ViewSnapshot(nope) = %v, want unknown table", err)
	}
}
