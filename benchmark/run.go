package main

// One run of one workload: set up, warm up, check, measure, check, and
// turn what the window collected into the named metrics.

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"idivm/internal/serve"
)

type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	knobs   knobs
	outDir  string    // where a traced run writes its trace file
	log     io.Writer // human-readable progress and tables
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports; its JSON form is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	rounds, pages int
	firstFailure  string
}

// setupsPerRun is how many times an untraced run sets the workload up;
// setup_s is the median and the last set-up is the one driven.
const setupsPerRun = 3

func run(cfg runConfig) (*result, error) {
	n := setupsPerRun
	if cfg.trace {
		n = 1
	}
	// The traced run reports wall-clock times: its numbers are compared
	// with each other, within one run.
	var cal *calibrator
	if !cfg.trace {
		var err error
		if cal, err = newCalibrator(); err != nil {
			return nil, fmt.Errorf("reference kernel: %w", err)
		}
	}
	var b *bench
	var setupS []float64
	for i := 0; i < n; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		debug.FreeOSMemory()
		var before time.Duration
		if cal != nil {
			before = cal.resample()
		}
		t0 := time.Now()
		nb, err := cfg.spec.setup(cfg.spec, cfg.seed, cfg.smoke, cfg.knobs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		if cal != nil {
			// A set-up is long; scale it by the kernel before and after it.
			d = time.Duration(float64(d) * float64(refNominal) / (float64(before+cal.resample()) / 2))
		}
		setupS = append(setupS, d.Seconds())
		b = nb
	}
	b.cal = cal
	defer b.close()

	// Warm-up: lazy work a long-running system has long since done — the
	// first epoch, the first secondary indexes the read pages build.
	for i := 0; i < b.sz.Warm; i++ {
		if err := b.round(b.mods.next()); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
		b.afterRound()
		if (i+1)%b.sz.R == 0 || i == b.sz.Warm-1 {
			b.readPage(b.page.next(), false, nil)
		}
	}
	checks, checkDur := b.checkViews()

	res := &result{Metrics: make(map[string]metricValue)}
	var w *window
	var err error
	if cfg.trace {
		w, err = b.runTraced(cfg, res)
	} else {
		w, err = b.measure(cfg.seconds, nil, nil)
		if err == nil {
			b.endToEndMetrics(res, w, median(setupS))
		}
	}
	if err != nil {
		return nil, err
	}
	n2, d2 := b.checkViews()
	checks += n2 + w.checks
	checkDur += d2 + w.checkDur

	res.rounds = len(w.roundMs) + len(w.tracedMs)
	res.pages = len(w.pageMs)
	res.Attempted = w.mods + w.reads + checks
	res.Failed = b.fail.n
	res.Correct = b.fail.n == 0
	res.firstFailure = b.fail.first
	fmt.Fprintf(cfg.log, "# %s seed=%d trace=%v: %d rounds, %d read pages, %d view checks (%.2f s) in a %.1f s window\n",
		cfg.spec.name, cfg.seed, cfg.trace, res.rounds, res.pages, checks, checkDur.Seconds(), w.elapsed.Seconds())
	if cal != nil {
		k := median(cal.samples)
		fmt.Fprintf(cfg.log, "# %s: wall-clock round median %.3f ms; reference kernel median %.3f ms over %d samples = %.2f × nominal (timings above are in reference time)\n",
			cfg.spec.name, median(w.wallMs), k, len(cal.samples), k/ms(refNominal))
	}
	return res, nil
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

const mb = 1 << 20

func (b *bench) endToEndMetrics(res *result, w *window, setupS float64) {
	set := func(name string, v float64) { res.set(endToEnd, name, v) }
	pm := float64(w.prefixMods)
	set("setup_s", setupS)
	set("mods_per_s", float64(w.mods)/w.visible.Seconds())
	set("visible_ms_p50", median(w.roundMs))
	set("read_page_ms_p50", median(w.pageMs))
	set("accesses_per_mod", float64(w.prefixAccesses.Total())/pm)
	set("allocs_per_mod", float64(w.prefixObjs)/pm)
	set("alloc_kb_per_mod", float64(w.prefixBytes)/1024/pm)
	set("live_heap_mb", float64(w.liveHeap)/mb)
	set("peak_heap_mb", float64(w.peakHeld)/mb)
}

// runTraced is the measured part of a traced run: the main window with
// three blocks in four traced, the serving-only phases, the probes, the
// trace file and the self-time table.
func (b *bench) runTraced(cfg runConfig, res *result) (*window, error) {
	tr := newTracer()
	tally := &roundTally{viewTime: make(map[string]time.Duration)}
	var enqueueUs []float64
	main := cfg.seconds
	if b.srv != nil {
		b.enqueueTimes = &enqueueUs
		main = 0.6 * cfg.seconds // the rest goes to the phases below
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	s0 := b.serveStats()
	w, err := b.measure(main, tr, tally)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&gc1)
	s1 := b.serveStats()

	var sp servePhases
	if b.srv != nil {
		b.enqueueTimes = nil
		if err := b.singleWrites(20, &sp); err != nil {
			return nil, fmt.Errorf("single writes: %w", err)
		}
		if err := b.concurrentPhase(seconds(0.15*cfg.seconds), &sp); err != nil {
			return nil, fmt.Errorf("concurrent phase: %w", err)
		}
		if err := b.openLoop(600, seconds(0.2*cfg.seconds), &sp); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}

	storageP, err := b.probeStorage()
	if err != nil {
		return nil, err
	}
	algebraP, err := b.probeAlgebra()
	if err != nil {
		return nil, err
	}
	parseUs, err := b.probeParse()
	if err != nil {
		return nil, err
	}
	beginMs, endMs := b.probeEpochs()

	set := func(name string, v float64) { res.set(perLayer, name, v) }
	for _, d := range perLayer {
		set(d.name, 0) // what the workload does not exercise reads 0
	}
	rounds := float64(tally.rounds)
	perRound := func(d time.Duration) float64 { return ms(d) / rounds }
	mods := float64(tally.mods)

	apply := tr.total("db.apply")
	set("db.apply_us_per_mod", us(apply-tally.firstMod)/(mods-rounds))
	set("db.first_mod_us", us(tally.firstMod)/rounds)
	set("db.reset_log_ms", perRound(tr.total("db.reset_log")+tr.total("db.clear_log")))
	set("db.log_len_per_round", float64(tally.logLen)/rounds)

	set("ivm.compact_ms", perRound(tr.total("ivm.compact")))
	set("ivm.instances_ms", perRound(tr.total("ivm.instances")))
	set("ivm.compaction_ratio", ratio(float64(tally.logSeen), float64(tally.netChanges)))
	set("ivm.diff_tuples_per_round", float64(tally.diffTuples)/rounds)

	script := tr.total("ivm.script")
	var phases time.Duration
	for ph, name := range phaseSpanNames {
		set(name+"_ms", perRound(tally.phaseTime[ph]))
		set(name+"_accesses", float64(tally.phaseCost[ph].Total())/rounds)
		phases += tally.phaseTime[ph]
	}
	set("ivm.script_ms", perRound(script))
	set("ivm.script_overhead_ms", perRound(script-phases))
	set("ivm.view_diff_tuples_per_round", float64(tally.viewDiffTuples)/rounds)
	set("ivm.view_rows_touched_per_round", float64(tally.viewRowsTouched)/rounds)

	set("ivm.level0_ms", perRound(tally.levelTime[0]))
	set("ivm.level1plus_ms", perRound(tally.levelTime[1]))
	var slowest, allViews time.Duration
	for _, d := range tally.viewTime { // order-free: max and sum
		allViews += d
		if d > slowest {
			slowest = d
		}
	}
	set("ivm.slowest_view_share", ratio(float64(slowest), float64(allViews)))
	self := tr.selfTimes()
	set("ivm.maintainall_overhead_ms", perRound(self["ivm.maintain_all"]+self["ivm.view"]))
	set("ivm.register_ms", ms(b.registerTime))

	// Accesses charged inside the traced rounds' write→visible intervals
	// would need a second counter; the window's total covers traced and
	// reference rounds alike, and both charge the same.
	wm := float64(w.mods)
	set("ivm.accesses_reads_per_mod", float64(w.accesses.TupleReads)/wm)
	set("ivm.accesses_lookups_per_mod", float64(w.accesses.IndexLookups)/wm)
	set("ivm.accesses_writes_per_mod", float64(w.accesses.TupleWrites)/wm)

	set("algebra.compile_ms", algebraP.compileMs)
	set("algebra.recompute_ms", algebraP.recomputeMs)
	set("algebra.recompute_allocs", float64(algebraP.recomputeAllocs))
	set("algebra.ivm_speedup", ratio(algebraP.recomputeMs, perRound(tr.total("ivm.maintain_all"))))
	set("algebra.eval_interp_ms", algebraP.interpMs)

	set("storage.get_ns", storageP.get)
	set("storage.lookup_ns", storageP.lookup)
	set("storage.insert_ns", storageP.insert)
	set("storage.update_key_ns", storageP.updateKey)
	set("storage.delete_ns", storageP.deleteKey)
	set("rel.key_encode_ns", storageP.keyEncode)

	set("storage.begin_epoch_ms", beginMs)
	set("storage.advance_epoch_ms", perRound(tr.total("storage.advance_epoch")))
	set("storage.advance_epoch_rows", float64(tally.advanceRows)/rounds)
	set("storage.end_epoch_ms", endMs)

	if b.srv != nil {
		set("serve.enqueue_us_p50", median(enqueueUs))
		set("serve.batch_size_mean", ratio(float64(s1.Ops-s0.Ops), float64(s1.Batches-s0.Batches)))
		set("serve.ms_per_round", mean(w.roundMs))
		set("serve.replica_round_ms", mean(w.tracedMs))
		set("serve.overhead_ms_per_round", mean(w.roundMs)-mean(w.tracedMs))
		set("serve.single_write_visible_ms_p50", median(sp.singleMs))
		set("serve.delta_rows_per_round", ratio(float64(b.deltaRows), float64(b.deltaRounds)))
		set("serve.query_snapshot_us_p50", median(w.timing.perReadUs))
		set("serve.first_read_after_round_us_p50", median(w.timing.firstUs))
		set("serve.view_snapshot_ms_p50", median(w.snapshotMs))
		set("serve.plancache_hit_ratio", ratio(float64(s1.PlanCacheHits-s0.PlanCacheHits),
			float64(s1.PlanCacheHits-s0.PlanCacheHits+s1.PlanCacheMisses-s0.PlanCacheMisses)))
		set("serve.concurrent_read_us_p50", median(sp.concReadUs))
		set("serve.concurrent_read_us_p95", percentile(sp.concReadUs, 95))
		set("serve.concurrent_round_ms_p50", median(sp.concRoundMs))
		set("serve.snapshot_retry_ratio", sp.retryRatio)
		set("serve.open600_visible_ms_p50", median(sp.openVisibleMs))
		set("serve.open600_backlog_end", float64(sp.openBacklog))
		set("serve.gen_late_ms_p95", percentile(sp.openLateMs, 95))
	}
	set("sqlview.parse_us", parseUs)

	all := append(append([]float64(nil), w.roundMs...), w.tracedMs...)
	set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	set("runtime.gc_pause_ms_total", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	set("round.p95_ms", percentile(all, 95))
	set("round.p99_ms", percentile(all, 99))
	set("round.max_ms", percentile(all, 100))
	set("read_page.p95_ms", percentile(w.pageMs, 95))
	set("trace.overhead_ratio", ratio(median(w.tracedMs), median(w.roundMs)))

	path, err := tr.write(cfg.outDir, cfg.spec.name, tally.rounds)
	if err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "# %s: tails over %d rounds (%d traced, %d through the user path) and %d read pages; trace in %s\n",
		cfg.spec.name, len(all), len(w.tracedMs), len(w.roundMs), len(w.pageMs), path)
	if w.timing.parse+w.timing.eval > 0 {
		fmt.Fprintf(cfg.log, "# %s: read pages spent %.1f %% in sqlview.Parse and %.1f %% in algebra.Eval\n", cfg.spec.name,
			100*float64(w.timing.parse)/float64(w.timing.parse+w.timing.eval),
			100*float64(w.timing.eval)/float64(w.timing.parse+w.timing.eval))
	}
	printSelfTimes(cfg.log, cfg.spec.name, tr)
	return w, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serveStats returns the server's counters, or zeros without a server.
func (b *bench) serveStats() serve.Stats {
	if b.srv == nil {
		return serve.Stats{}
	}
	return b.srv.Stats()
}

// printSelfTimes prints which layer ate the round: every span name's self
// time per traced round and its share of the round, then the layer totals.
func printSelfTimes(out io.Writer, workload string, tr *tracer) {
	self := tr.selfTimes()
	rounds := 0
	var total time.Duration
	for _, s := range tr.spans {
		if s.Parent < 0 {
			rounds++
			total += time.Duration(s.End - s.Start)
		}
	}
	if rounds == 0 {
		return
	}
	names := make([]string, 0, len(self))
	var sum time.Duration
	for n, d := range self { // order-free: sorted below
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(out, "# %s: self time per traced round (%d rounds, %.3f ms each)\n", workload, rounds, ms(total)/float64(rounds))
	layers := make(map[string]time.Duration)
	for _, n := range names {
		fmt.Fprintf(out, "#   %-26s %9.3f ms %6.1f %%\n", n, ms(self[n])/float64(rounds), 100*float64(self[n])/float64(total))
		layers[layerOf(n)] += self[n]
	}
	lnames := make([]string, 0, len(layers))
	for l := range layers { // order-free: sorted below
		lnames = append(lnames, l)
	}
	sort.Slice(lnames, func(i, j int) bool { return layers[lnames[i]] > layers[lnames[j]] })
	for _, l := range lnames {
		fmt.Fprintf(out, "#   layer %-20s %9.3f ms %6.1f %%\n", l, ms(layers[l])/float64(rounds), 100*float64(layers[l])/float64(total))
	}
	fmt.Fprintf(out, "#   self times sum to %.2f %% of the rounds\n", 100*float64(sum)/float64(total))
}

// layerOf maps a span name to its layer: the part before the first dot;
// the executor's compute phases are algebra's kernels at work.
func layerOf(span string) string {
	switch span {
	case "ivm.phase.cache_compute", "ivm.phase.view_compute":
		return "algebra"
	case "round":
		return "benchmark"
	}
	for i := 0; i < len(span); i++ {
		if span[i] == '.' {
			return span[:i]
		}
	}
	return span
}
