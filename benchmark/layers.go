package main

// The traced run's extra phases and probes: what the per-layer metrics
// need beyond the spans of trace.go. The serving phases here are the only
// places the benchmark keeps two goroutines busy at once; nothing they
// measure is gated.

import (
	"fmt"
	"sync/atomic"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/serve"
	"idivm/internal/sqlview"
	"idivm/internal/storage"
)

const probeCalls = 10000

// storageProbe times single storage calls on a scratch copy of the
// workload's written base table, through a counting handle like every
// consumer above the engine boundary.
type storageProbe struct {
	get, lookup, insert, updateKey, deleteKey, keyEncode float64 // ns per call
}

func (b *bench) probeStorage() (storageProbe, error) {
	var p storageProbe
	src, err := b.d.Table(b.writeTables[0])
	if err != nil {
		return p, err
	}
	sch := src.Schema()
	ki := sch.KeyIndices()
	if len(ki) != 1 {
		return p, fmt.Errorf("probe: %s needs a single key column", src.Name())
	}
	k := ki[0]
	sec := len(sch.Attrs) - 1 // every written table ends in a non-key integer column
	scratch := db.NewWith(storage.FromEnv())
	t, err := scratch.CreateTable("probe", sch)
	if err != nil {
		return p, err
	}
	rows := src.Rows(rel.StatePost)
	for _, r := range rows {
		if err := t.Insert(r.Clone()); err != nil {
			return p, err
		}
	}
	per := func(t0 time.Time) float64 { return float64(time.Since(t0)) / probeCalls }

	key := make([]rel.Value, 1)
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		key[0] = rows[i%len(rows)][k]
		if _, ok := t.Get(rel.StatePost, key); !ok {
			return p, fmt.Errorf("probe: get missed")
		}
	}
	p.get = per(t0)

	attrs := []string{sch.Attrs[sec]}
	if _, err := t.Lookup(rel.StatePost, attrs, []rel.Value{rows[0][sec]}); err != nil { // builds the index
		return p, err
	}
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		key[0] = rows[i%len(rows)][sec]
		if _, err := t.Lookup(rel.StatePost, attrs, key); err != nil {
			return p, err
		}
	}
	p.lookup = per(t0)

	fresh := make([]rel.Tuple, probeCalls)
	for i := range fresh {
		fresh[i] = rows[i%len(rows)].Clone()
		fresh[i][k] = rel.Int(int64(1)<<40 + int64(i))
	}
	t0 = time.Now()
	for _, r := range fresh {
		if err := t.Insert(r); err != nil {
			return p, err
		}
	}
	p.insert = per(t0)

	val := make([]rel.Value, 1)
	t0 = time.Now()
	for i, r := range fresh {
		key[0], val[0] = r[k], rel.Int(int64(i))
		if _, err := t.UpdateKey(key, attrs, val); err != nil {
			return p, err
		}
	}
	p.updateKey = per(t0)

	t0 = time.Now()
	for _, r := range fresh {
		key[0] = r[k]
		if !t.DeleteKey(key) {
			return p, fmt.Errorf("probe: delete missed")
		}
	}
	p.deleteKey = per(t0)

	var buf []byte
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		buf = rel.AppendKey(buf[:0], rows[i%len(rows)], ki)
	}
	p.keyEncode = per(t0)
	return p, nil
}

// probeEpochs times what a round of a batch workload pays to open and
// close its epochs: BeginEpoch then EndEpoch on the written base tables
// and on every cascade parent, median of five. A pinned (serving) system
// never opens or closes an epoch, so both read 0 there.
func (b *bench) probeEpochs() (beginMs, endMs float64) {
	if b.sys.PinEpochs {
		return 0, 0
	}
	var tables []*storage.Handle
	for _, name := range b.writeTables {
		if t, err := b.d.Table(name); err == nil {
			tables = append(tables, t)
		}
	}
	for _, name := range b.sys.ViewNames() {
		if b.d.DerivedLoggingEnabled(name) {
			if t, err := b.d.Table(name); err == nil {
				tables = append(tables, t)
			}
		}
	}
	var begins, ends []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, t := range tables {
			t.BeginEpoch()
		}
		t1 := time.Now()
		for _, t := range tables {
			t.EndEpoch()
		}
		begins = append(begins, ms(t1.Sub(t0)))
		ends = append(ends, ms(time.Since(t1)))
	}
	return median(begins), median(ends)
}

// algebraProbe times the operator layer on the workload's own view plans.
type algebraProbe struct {
	compileMs, recomputeMs, interpMs float64
	recomputeAllocs                  uint64
}

func (b *bench) probeAlgebra() (algebraProbe, error) {
	var p algebraProbe
	rs := newRuntimeSampler()
	for _, name := range b.sys.ViewNames() {
		v, _ := b.sys.View(name)
		t0 := time.Now()
		plan, err := algebra.Compile(v.Plan)
		if err != nil {
			return p, err
		}
		p.compileMs += ms(time.Since(t0))

		// One evaluation is a single sample on a noisy box: median of three.
		var compiled, interp []float64
		for rep := 0; rep < 3; rep++ {
			objs0, _, _ := rs.read()
			t0 = time.Now()
			if _, err := plan.Run(b.d); err != nil {
				return p, err
			}
			compiled = append(compiled, ms(time.Since(t0)))
			if objs1, _, _ := rs.read(); rep == 0 {
				p.recomputeAllocs += objs1 - objs0
			}
			t0 = time.Now()
			if _, err := algebra.Eval(v.Plan, b.d); err != nil {
				return p, err
			}
			interp = append(interp, ms(time.Since(t0)))
		}
		p.recomputeMs += median(compiled)
		p.interpMs += median(interp)
	}
	return p, nil
}

// probeParse returns the mean time to parse one of the workload's reads.
func (b *bench) probeParse() (float64, error) {
	reads := b.page.next()
	n := 0
	t0 := time.Now()
	for n < 2000 {
		for i := range reads {
			if _, err := sqlview.Parse(reads[i].sql, b.d); err != nil {
				return 0, err
			}
			n++
		}
	}
	return us(time.Since(t0)) / float64(n), nil
}

// servePhases holds what the serving-only phases of the traced run saw.
type servePhases struct {
	singleMs      []float64
	concReadUs    []float64
	concRoundMs   []float64
	retryRatio    float64
	openVisibleMs []float64
	openLateMs    []float64
	openBacklog   int64
}

// singleWrites commits n modifications one per round: enqueue, Flush,
// Wait. A round's fixed cost is all a single write pays.
func (b *bench) singleWrites(n int, out *servePhases) error {
	var mods []mod
	for len(mods) < n {
		mods = append(mods, b.mods.next()...)
	}
	// Rounds come as insert/delete pairs; an even count keeps the size.
	n -= n % 2
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p := b.enqueue(&mods[i])
		if err := b.srv.Flush(); err != nil {
			return err
		}
		if err := p.Wait(); err != nil {
			b.fail.add(err)
		}
		out.singleMs = append(out.singleMs, ms(time.Since(t0)))
		b.drainDeltas()
	}
	// The modifications generated but not issued would leave the
	// generator's FIFO ahead of the table; issue them as one batch.
	if rest := mods[n:]; len(rest) > 0 {
		b.enqueueAll(rest)
		if err := b.srv.Flush(); err != nil {
			return err
		}
		b.waitAll()
	}
	b.afterRound()
	return nil
}

// concurrentPhase runs dispatcher rounds for d while a second goroutine
// issues one snapshot read per millisecond: reader/writer contention.
func (b *bench) concurrentPhase(d time.Duration, out *servePhases) error {
	var sqls []string
	for p := 0; p < 8; p++ {
		for _, r := range b.page.next() {
			sqls = append(sqls, r.sql)
		}
	}
	s0 := b.srv.Stats()
	stop := make(chan struct{})
	done := make(chan struct{})
	var lat []float64 // owned by the reader until done is closed
	var readErr error
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if _, err := b.srv.QuerySnapshot(sqls[i%len(sqls)]); err != nil && readErr == nil {
				readErr = err
			}
			lat = append(lat, us(time.Since(t0)))
		}
	}()
	var err error
	for end := time.Now().Add(d); time.Now().Before(end) && err == nil; {
		m := b.mods.next()
		t0 := time.Now()
		err = b.round(m)
		out.concRoundMs = append(out.concRoundMs, ms(time.Since(t0)))
		b.afterRound()
	}
	close(stop)
	<-done
	if err != nil {
		return err
	}
	if readErr != nil {
		b.fail.add(readErr)
	}
	out.concReadUs = lat
	s1 := b.srv.Stats()
	if reads := s1.SnapshotReads - s0.SnapshotReads; reads > 0 {
		out.retryRatio = float64(s1.SnapshotRetries-s0.SnapshotRetries) / float64(reads)
	}
	return nil
}

// openLoop issues writes on a fixed schedule — rate per second for d,
// whether or not earlier ones are visible yet — and times each from the
// moment it was due, so a stall charges every write queued behind it.
func (b *bench) openLoop(rate int, d time.Duration, out *servePhases) error {
	n := int(d.Seconds() * float64(rate))
	n -= n % b.sz.M // whole rounds, so every batch is cut by count
	var mods []mod
	for len(mods) < n {
		mods = append(mods, b.mods.next()...)
	}
	type issued struct {
		p   *serve.Pending
		due time.Time
	}
	// Sized to the number of sends: the generator never waits for the
	// collector.
	ch := make(chan issued, n)
	done := make(chan struct{})
	var visible []float64 // owned by the collector until done is closed
	var outstanding atomic.Int64
	var waitErr error
	go func() {
		defer close(done)
		for it := range ch {
			if err := it.p.Wait(); err != nil && waitErr == nil {
				waitErr = err
			}
			visible = append(visible, ms(time.Since(it.due)))
			outstanding.Add(-1)
		}
	}()
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out.openLateMs = append(out.openLateMs, ms(time.Since(due)))
		outstanding.Add(1)
		ch <- issued{p: b.enqueue(&mods[i]), due: due}
	}
	out.openBacklog = outstanding.Load()
	err := b.srv.Flush()
	close(ch)
	<-done
	if err != nil {
		return err
	}
	if waitErr != nil {
		b.fail.add(waitErr)
	}
	out.openVisibleMs = visible
	b.afterRound()
	return nil
}
