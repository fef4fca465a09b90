package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root repeats these names; a
// test keeps the two identical.

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which are never gated).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mods_per_s", "1/s", "higher", 0.25},
	{"visible_ms_p50", "ms", "lower", 0.25},
	{"read_page_ms_p50", "ms", "lower", 0.25},
	{"accesses_per_mod", "count", "lower", 0.03},
	{"allocs_per_mod", "count", "lower", 0.05},
	{"alloc_kb_per_mod", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.15},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// metric whose layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// db: catalog, eager apply, modification log, epoch open on the first
	// logged write.
	{name: "db.apply_us_per_mod", unit: "us", better: "lower"},
	{name: "db.first_mod_us", unit: "us", better: "lower"},
	{name: "db.reset_log_ms", unit: "ms", better: "lower"},
	{name: "db.log_len_per_round", unit: "count", better: "lower"},

	// ivm: log compaction and i-diff instances.
	{name: "ivm.compact_ms", unit: "ms", better: "lower"},
	{name: "ivm.instances_ms", unit: "ms", better: "lower"},
	{name: "ivm.compaction_ratio", unit: "ratio", better: "higher"},
	{name: "ivm.diff_tuples_per_round", unit: "count", better: "lower"},

	// ivm: Δ-script executor, by phase (times and accesses are the
	// executor's own PhaseCosts).
	{name: "ivm.script_ms", unit: "ms", better: "lower"},
	{name: "ivm.phase.cache_compute_ms", unit: "ms", better: "lower"},
	{name: "ivm.phase.cache_apply_ms", unit: "ms", better: "lower"},
	{name: "ivm.phase.view_compute_ms", unit: "ms", better: "lower"},
	{name: "ivm.phase.view_apply_ms", unit: "ms", better: "lower"},
	{name: "ivm.phase.cache_compute_accesses", unit: "count", better: "lower"},
	{name: "ivm.phase.cache_apply_accesses", unit: "count", better: "lower"},
	{name: "ivm.phase.view_compute_accesses", unit: "count", better: "lower"},
	{name: "ivm.phase.view_apply_accesses", unit: "count", better: "lower"},
	{name: "ivm.script_overhead_ms", unit: "ms", better: "lower"},
	{name: "ivm.view_diff_tuples_per_round", unit: "count", better: "lower"},
	{name: "ivm.view_rows_touched_per_round", unit: "count", better: "lower"},

	// ivm: cascade levels and per-view fixed costs.
	{name: "ivm.level0_ms", unit: "ms", better: "lower"},
	{name: "ivm.level1plus_ms", unit: "ms", better: "lower"},
	{name: "ivm.slowest_view_share", unit: "ratio", better: "lower"},
	{name: "ivm.maintainall_overhead_ms", unit: "ms", better: "lower"},
	{name: "ivm.register_ms", unit: "ms", better: "lower"},

	// ivm: the paper's §6 unit, by kind.
	{name: "ivm.accesses_reads_per_mod", unit: "count", better: "lower"},
	{name: "ivm.accesses_lookups_per_mod", unit: "count", better: "lower"},
	{name: "ivm.accesses_writes_per_mod", unit: "count", better: "lower"},

	// algebra (+expr): compiled and interpreted operators, probed after
	// the run on the workload's own view plans.
	{name: "algebra.compile_ms", unit: "ms", better: "lower"},
	{name: "algebra.recompute_ms", unit: "ms", better: "lower"},
	{name: "algebra.recompute_allocs", unit: "count", better: "lower"},
	{name: "algebra.ivm_speedup", unit: "ratio", better: "higher"},
	{name: "algebra.eval_interp_ms", unit: "ms", better: "lower"},

	// storage + rel: 10k-call probes after the run.
	{name: "storage.get_ns", unit: "ns", better: "lower"},
	{name: "storage.lookup_ns", unit: "ns", better: "lower"},
	{name: "storage.insert_ns", unit: "ns", better: "lower"},
	{name: "storage.update_key_ns", unit: "ns", better: "lower"},
	{name: "storage.delete_ns", unit: "ns", better: "lower"},
	{name: "rel.key_encode_ns", unit: "ns", better: "lower"},

	// storage: epochs.
	{name: "storage.begin_epoch_ms", unit: "ms", better: "lower"},
	{name: "storage.advance_epoch_ms", unit: "ms", better: "lower"},
	{name: "storage.advance_epoch_rows", unit: "count", better: "lower"},
	{name: "storage.end_epoch_ms", unit: "ms", better: "lower"},

	// serve: write path.
	{name: "serve.enqueue_us_p50", unit: "us", better: "lower"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher"},
	{name: "serve.ms_per_round", unit: "ms", better: "lower"},
	{name: "serve.replica_round_ms", unit: "ms", better: "lower"},
	{name: "serve.overhead_ms_per_round", unit: "ms", better: "lower"},
	{name: "serve.single_write_visible_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.delta_rows_per_round", unit: "count", better: "lower"},

	// serve + sqlview: read path.
	{name: "serve.query_snapshot_us_p50", unit: "us", better: "lower"},
	{name: "serve.first_read_after_round_us_p50", unit: "us", better: "lower"},
	{name: "serve.view_snapshot_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.plancache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sqlview.parse_us", unit: "us", better: "lower"},

	// serve: reader/writer contention and queueing (traced run only, not
	// single-goroutine; recorded for a later issue).
	{name: "serve.concurrent_read_us_p50", unit: "us", better: "lower"},
	{name: "serve.concurrent_read_us_p95", unit: "us", better: "lower"},
	{name: "serve.concurrent_round_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.snapshot_retry_ratio", unit: "ratio", better: "lower"},
	{name: "serve.open600_visible_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.open600_backlog_end", unit: "count", better: "lower"},
	{name: "serve.gen_late_ms_p95", unit: "ms", better: "lower"},

	// runtime and the trace itself.
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "round.p95_ms", unit: "ms", better: "lower"},
	{name: "round.p99_ms", unit: "ms", better: "lower"},
	{name: "round.max_ms", unit: "ms", better: "lower"},
	{name: "read_page.p95_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// sizes fixes a workload's drive: M modifications per round, a read page
// of K keyed reads every R-th round, count metrics over the first P
// measured rounds, Warm untimed rounds before the window.
type sizes struct {
	M, R, K, P, Warm int
}

// workloadSpec is one workload: its name, why it exists, its full and
// smoke (data ÷ 10) drive sizes, and the set-up that builds it.
type workloadSpec struct {
	name  string
	why   string
	full  sizes
	smoke sizes
	setup func(spec *workloadSpec, seed int64, smoke bool, knobs knobs) (*bench, error)
}

var workloads = []*workloadSpec{
	{
		name:  "spj_price",
		why:   "paper's headline SPJ view under price updates: db apply, first-write epoch snapshot and view apply dominate; compute and serve are near zero",
		full:  sizes{M: 200, R: 16, K: 256, P: 2000, Warm: 64},
		smoke: sizes{M: 200, R: 16, K: 64, P: 200, Warm: 16},
		setup: setupSPJ,
	},
	{
		name:  "bsma_views",
		why:   "paper's BSMA evaluation: eleven views (joins, aggregates, cascade, MIN/MAX) in one system, so algebra view-compute and per-view fixed costs dominate and db is near zero",
		full:  sizes{M: 100, R: 1, K: 64, P: 100, Warm: 4},
		smoke: sizes{M: 20, R: 1, K: 16, P: 16, Warm: 2},
		setup: setupBSMA,
	},
	{
		name:  "feed_serving",
		why:   "Zipf feed behind the group-commit server with inserts and deletes: the only workload where serve, the O(state) epoch advance and snapshot reads beside writes are first-order",
		full:  sizes{M: 128, R: 1, K: 32, P: 100, Warm: 10},
		smoke: sizes{M: 16, R: 1, K: 16, P: 40, Warm: 10},
		setup: setupFeed,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// knobs are the execution settings the benchmark leaves at their defaults;
// any non-zero value marks a results file default_config: false.
type knobs struct {
	Workers, OpWorkers, BatchSize, SkewThreshold int
}

func (k knobs) isDefault() bool { return k == knobs{} }
