package main

// The drive, common to all workloads. A run is a sequence of rounds:
// issue the round's M modifications, wait until every view reflects them,
// and every R-th round read a page of K keyed rows back through the
// user's read path. One client, one round outstanding (closed loop): a
// caller of this system waits for its write to be visible, and the
// dispatcher is a single writer, so M ÷ round time is also the saturation
// throughput. At most one goroutine is busy at a time.

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/serve"
	"idivm/internal/sqlview"
)

// blockRounds is the unit of alternation of a traced run — three traced
// blocks, then one block through the untraced path as the overhead
// reference — and how often a run considers a consistency check.
const blockRounds = 8

// failures counts operations that failed and keeps the first reason.
type failures struct {
	n     int
	first string
}

func (f *failures) add(err error) {
	f.n++
	if f.first == "" {
		s := err.Error()
		if len(s) > 300 {
			s = s[:300] + "…"
		}
		f.first = s
	}
}

// applyMod applies one modification through db.Database; one that fails or
// changes nothing is a failed operation.
func (b *bench) applyMod(m *mod) {
	var changed bool
	var err error
	switch m.kind {
	case db.ModInsert:
		err = b.d.Insert(m.table, m.row)
		changed = err == nil
	case db.ModUpdate:
		changed, err = b.d.Update(m.table, m.key, m.attrs, m.vals)
	default:
		changed, err = b.d.Delete(m.table, m.key)
	}
	if err == nil && !changed {
		err = fmt.Errorf("%s on %s %v changed nothing", m.kind, m.table, m.key)
	}
	if err != nil {
		b.fail.add(err)
	}
}

// round issues one round through the path a user takes and returns when
// every view is consistent with it: eager applies plus MaintainAll, or on
// the serving workload M enqueues and M waits.
func (b *bench) round(mods []mod) error {
	if b.srv == nil {
		for i := range mods {
			b.applyMod(&mods[i])
		}
		_, err := b.sys.MaintainAll()
		return err
	}
	b.enqueueAll(mods)
	b.waitAll()
	return nil
}

func (b *bench) enqueueAll(mods []mod) {
	b.pending = b.pending[:0]
	for i := range mods {
		if b.enqueueTimes == nil {
			b.pending = append(b.pending, b.enqueue(&mods[i]))
			continue
		}
		t0 := time.Now()
		b.pending = append(b.pending, b.enqueue(&mods[i]))
		*b.enqueueTimes = append(*b.enqueueTimes, us(time.Since(t0)))
	}
}

func (b *bench) waitAll() {
	for _, p := range b.pending {
		if err := p.Wait(); err != nil {
			b.fail.add(err)
		}
	}
}

func (b *bench) enqueue(m *mod) *serve.Pending {
	switch m.kind {
	case db.ModInsert:
		return b.srv.EnqueueInsert(m.table, m.row)
	case db.ModUpdate:
		return b.srv.EnqueueUpdate(m.table, m.key, m.attrs, m.vals)
	default:
		return b.srv.EnqueueDelete(m.table, m.key)
	}
}

// afterRound runs outside the timers: it drains the subscription and
// checks the workload's invariant.
func (b *bench) afterRound() {
	b.drainDeltas()
	if b.invariant != nil {
		if err := b.invariant(); err != nil {
			b.fail.add(err)
		}
	}
}

// drainDeltas empties the subscription, which must deliver one delta per
// dispatcher round with contiguous round numbers.
func (b *bench) drainDeltas() {
	if b.sub == nil {
		return
	}
	for {
		select {
		case d, ok := <-b.sub.C():
			if !ok {
				b.fail.add(errors.New("subscription closed during the run"))
				return
			}
			if b.lastDelta != 0 && d.Round != b.lastDelta+1 {
				b.fail.add(fmt.Errorf("subscription delta round %d follows %d", d.Round, b.lastDelta))
			}
			b.lastDelta = d.Round
			b.deltaRounds++
			for _, inst := range d.Diffs {
				b.deltaRows += int64(inst.Len())
			}
		default:
			return
		}
	}
}

// pageTiming splits a read page's time for the traced run.
type pageTiming struct {
	perReadUs []float64 // every read
	firstUs   []float64 // the first read of every page: the one right after a round
	parse     time.Duration
	eval      time.Duration
}

// readPage answers the page's reads one after the other through the read
// path a user takes — Server.QuerySnapshot when serving, otherwise what
// the facade's Query does: sqlview.Parse then algebra.Eval — and returns
// the total time. Results are kept only when keep is set.
func (b *bench) readPage(reads []read, keep bool, pt *pageTiming) ([]*rel.Relation, time.Duration) {
	var results []*rel.Relation
	if keep {
		results = make([]*rel.Relation, 0, len(reads))
	}
	start := time.Now()
	last := start
	for i := range reads {
		var r *rel.Relation
		var err error
		if b.srv != nil {
			r, err = b.srv.QuerySnapshot(reads[i].sql)
		} else {
			var v *sqlview.View
			v, err = sqlview.Parse(reads[i].sql, b.d)
			var parsed time.Time
			if pt != nil {
				parsed = time.Now()
				pt.parse += parsed.Sub(last)
			}
			if err == nil {
				r, err = algebra.Eval(v.Plan, b.d)
			}
			if pt != nil {
				pt.eval += time.Since(parsed)
			}
		}
		if err != nil {
			b.fail.add(fmt.Errorf("read %q: %w", reads[i].sql, err))
			r = nil
		}
		if pt != nil {
			now := time.Now()
			pt.perReadUs = append(pt.perReadUs, us(now.Sub(last)))
			if i == 0 {
				pt.firstUs = append(pt.firstUs, us(now.Sub(last)))
			}
			last = now
		}
		if keep {
			results = append(results, r)
		}
	}
	return results, time.Since(start)
}

// verifyPage compares each read's rows with the view filtered by hand:
// the view's rows are grouped once per (view, column) by rel's canonical
// key encoding of the column, and each read must equal its group.
func (b *bench) verifyPage(reads []read, results []*rel.Relation) {
	state := rel.StatePost
	if b.srv != nil {
		state = rel.StatePre // what QuerySnapshot reads; equal to post between rounds
	}
	groups := make(map[string]map[string][]rel.Tuple)
	for i, r := range reads {
		if results[i] == nil {
			continue // already counted as a failed read
		}
		t, err := b.d.Table(r.view)
		if err != nil {
			b.fail.add(err)
			continue
		}
		sch := t.Schema()
		ci := sch.Index(r.col)
		idx, err := sch.Indices(r.cols)
		if ci < 0 || err != nil {
			b.fail.add(fmt.Errorf("verify %q: columns not in view %s", r.sql, r.view))
			continue
		}
		byKey, ok := groups[r.view+"\x00"+r.col]
		if !ok {
			byKey = make(map[string][]rel.Tuple)
			for _, row := range t.Rows(state) {
				k := string(row[ci].EncodeKey(nil))
				byKey[k] = append(byKey[k], row)
			}
			groups[r.view+"\x00"+r.col] = byKey
		}
		want := rel.NewRelation(results[i].Schema)
		for _, row := range byKey[string(r.val.EncodeKey(nil))] {
			out := make(rel.Tuple, len(idx))
			for j, c := range idx {
				out[j] = row[c]
			}
			want.Add(out)
		}
		if !results[i].EqualSet(want) {
			b.fail.add(fmt.Errorf("read %q returned %d rows, the filtered view has %d", r.sql, results[i].Len(), want.Len()))
		}
	}
}

// checkViews compares every view with its recomputation and returns the
// number of views checked and the time it took. Always called outside the
// timers; it ends by returning the garbage it made to the OS so the heap
// samples keep measuring the workload.
func (b *bench) checkViews() (int, time.Duration) {
	t0 := time.Now()
	names := b.sys.ViewNames()
	for _, name := range names {
		if err := b.sys.CheckConsistent(name); err != nil {
			b.fail.add(err)
		}
	}
	debug.FreeOSMemory()
	return len(names), time.Since(t0)
}

// runtimeSampler reads the allocation counters and the heap's footprint
// from runtime/metrics, which does not stop the world.
type runtimeSampler struct {
	s []metrics.Sample
}

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}}
}

// read returns objects allocated, bytes allocated and the heap memory the
// process holds (MemStats.HeapSys − HeapReleased).
func (r *runtimeSampler) read() (objs, bytes, held uint64) {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64(), r.s[1].Value.Uint64(),
		r.s[2].Value.Uint64() + r.s[3].Value.Uint64() + r.s[4].Value.Uint64()
}

// window is what one measured window collects.
type window struct {
	// Times are reference time when the bench has a calibrator (untraced
	// runs), wall-clock otherwise; wallMs is always wall-clock.
	roundMs    []float64 // write→visible time of every round through the user path
	tracedMs   []float64 // same for the traced rounds of a traced run
	wallMs     []float64
	pageMs     []float64
	snapshotMs []float64
	mods       int
	visible    time.Duration // Σ write→visible over roundMs and tracedMs
	reads      int

	// Over the first P rounds only, so they do not depend on how many
	// rounds the machine completes.
	prefixMods     int
	prefixAccesses rel.CostCounter
	prefixObjs     uint64
	prefixBytes    uint64
	liveHeap       uint64

	// Over every round's write→visible interval.
	accesses rel.CostCounter

	peakHeld uint64
	checks   int
	checkDur time.Duration
	elapsed  time.Duration
	timing   *pageTiming // traced run only
}

// measure drives the bench for the given duration (and at least until the
// prefix is complete). With a tracer, three blocks in four run as traced
// replicas.
func (b *bench) measure(seconds float64, tr *tracer, tally *roundTally) (*window, error) {
	w := &window{}
	if tr != nil {
		w.timing = &pageTiming{}
	}
	sz := b.sz
	rs := newRuntimeSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	minRounds := sz.P
	if tr != nil {
		minRounds = 4 * blockRounds // one reference block at least
	}
	pageNo := 0
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		if i >= sz.P && i%blockRounds == 0 && w.checkDur*10 < time.Since(start)-w.checkDur {
			// Checks so far cost under a tenth of the window: check again.
			n, d := b.checkViews()
			w.checks += n
			w.checkDur += d
		}
		// The round's input is generated here, outside every timer.
		m := b.mods.next()
		var reads []read
		if (i+1)%sz.R == 0 {
			reads = b.page.next()
		}
		traced := tr != nil && (i/blockRounds)%4 != 3
		if b.cal != nil {
			b.cal.refresh()
		}

		objs0, bytes0, _ := rs.read()
		c0 := *b.d.Counter()
		t0 := time.Now()
		var err error
		if traced {
			tr.round = int32(tally.rounds)
			err = b.tracedRound(tr, tally, m)
		} else {
			err = b.round(m)
		}
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		cost := b.d.Counter().Sub(c0)
		objs1, bytes1, held := rs.read()
		b.afterRound()

		w.wallMs = append(w.wallMs, ms(dt))
		if b.cal != nil {
			dt = b.cal.ref(dt)
		}
		if traced {
			w.tracedMs = append(w.tracedMs, ms(dt))
		} else {
			w.roundMs = append(w.roundMs, ms(dt))
		}
		w.mods += len(m)
		w.visible += dt
		w.accesses.Add(cost)
		if held > w.peakHeld {
			w.peakHeld = held
		}
		if i < sz.P {
			w.prefixMods += len(m)
			w.prefixAccesses.Add(cost)
			w.prefixObjs += objs1 - objs0
			w.prefixBytes += bytes1 - bytes0
		}
		if i == sz.P-1 {
			runtime.GC()
			var st runtime.MemStats
			runtime.ReadMemStats(&st)
			w.liveHeap = st.HeapAlloc
		}

		if reads != nil {
			verify := pageNo%64 == 0
			results, d := b.readPage(reads, verify, w.timing)
			if b.cal != nil {
				d = b.cal.ref(d)
			}
			w.pageMs = append(w.pageMs, ms(d))
			w.reads += len(reads)
			if verify {
				b.verifyPage(reads, results)
			}
			if b.snapshotEvery > 0 && pageNo%b.snapshotEvery == 0 {
				t0 := time.Now()
				if _, err := b.srv.ViewSnapshot(b.snapshotView); err != nil {
					b.fail.add(err)
				}
				w.snapshotMs = append(w.snapshotMs, ms(time.Since(t0)))
				w.reads++
			}
			pageNo++
		}
	}
	w.elapsed = time.Since(start)
	return w, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
