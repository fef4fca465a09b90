GO ?= go

.PHONY: check build vet test race race-ivm race-serving lint lint-json loc fuzz-smoke bench-e2e-smoke bench-smoke bench-smoke-serving

# check is the full local gate, identical to CI: build, vet, race-enabled
# tests, also of maintenance and of the serving layer at both GOMAXPROCS
# shapes, the repository linter, the non-test line count per package, a
# short run of the four fuzz targets, and a smoke run of the end-to-end
# benchmark (a module of its own that `./...` does not reach). Any lint
# finding fails the build.
check: build vet race race-ivm race-serving lint loc fuzz-smoke bench-e2e-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-ivm runs the maintenance and facade suites race-enabled at
# GOMAXPROCS 1 and 4. ivm.System.Workers defaults to GOMAXPROCS, and
# MaintainAll has one level schedule at every width: at -cpu 1 it runs each
# level's views inline and at -cpu 4 on goroutines, so both get race
# coverage without a knob.
race-ivm:
	$(GO) test -race -cpu 1,4 ./internal/ivm/ .

# race-serving is the serving-layer tear-check at both GOMAXPROCS shapes
# CI uses; its readers join two tables in one snapshot, which is what a
# read overlapping the round-end advance would tear, and its concurrent
# plan-cache readers are what a compiled plan shared by two reads would race.
race-serving:
	$(GO) test -race -cpu 1,4 -run 'Serving|Snapshot|Dispatcher' ./internal/serve/ .

lint:
	$(GO) run ./cmd/ivmlint ./...

# lint-json keeps the text findings on stdout and additionally writes
# lint.json (the stable CI-artifact schema: file/line/col/analyzer/message
# per finding, [] when clean). Exit status matches `make lint`.
lint-json:
	$(GO) run ./cmd/ivmlint -o lint.json ./...

# loc prints the non-test Go lines of every package (every line of every
# *.go file that is not a _test.go file, comments and blanks included) and
# their total — ROADMAP aim 2's "least code" as a number every PR shows.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -printf '%h\n' | sort -u | while read -r d; do \
		printf '%6d  %s\n' "$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$$d"; \
	done
	@printf '%6d  total\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec cat {} + | wc -l)"

# fuzz-smoke runs internal/rel's four fuzz targets for ten seconds each
# (CI's fuzz step runs this target): FuzzTableEpoch — writes, multi-tuple
# i-diff instances × Begin/Advance/EndEpoch programs against the full-copy
# oracle, see internal/rel/epochtest —, FuzzValueKey — KeyEqual ⇔ equal
# EncodeKey encodings ⇒ equal digests, the contract the keyless indexes rest
# on —, FuzzDigestTable — set/get/delete/grow programs on the flat
# digest → chain-head table against the map it replaced — and
# FuzzColumnRoundTrip — value sequences of every kind mix through a batch
# column and back, each value returned exactly (==). A failure leaves its
# minimised input under internal/rel/testdata/fuzz/ — check it in with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTableEpoch$$' -fuzztime 10s ./internal/rel
	$(GO) test -run '^$$' -fuzz '^FuzzValueKey$$' -fuzztime 10s ./internal/rel
	$(GO) test -run '^$$' -fuzz '^FuzzDigestTable$$' -fuzztime 10s ./internal/rel
	$(GO) test -run '^$$' -fuzz '^FuzzColumnRoundTrip$$' -fuzztime 10s ./internal/rel

# bench-e2e-smoke vets, tests and smoke-runs the end-to-end benchmark
# (benchmark/, BENCHMARK.json): every workload untraced and traced on a
# tenth of the data for five seconds each, with every view checked against
# recomputation inside the run. It reads the benchmark and never edits it;
# it gates correctness and that the benchmark still builds against the
# internal packages, not speed.
bench-e2e-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark . -smoke -all -seconds 5

# bench-smoke is the benchmark regression gate (CI's bench-smoke job runs
# this target): a one-iteration run
# of the Figure 12a (d=200) and SPJ headline benchmarks plus the columnar
# kernel microbenchmarks, converted to BENCH.json (ns/op, allocs/op and
# accesses/op per row) and compared against testdata/bench_baseline.json
# on the deterministic accesses/op metric (>20% worse fails; ns/op and
# allocs/op appear as informational columns — gate on allocations with
# BENCHJSON_FLAGS='... -metric allocs/op').
# The Fig10 rows (all eight BSMA views, both modes) are the gate on the γ
# rules: Q11, Q18, Q*1–Q*3 are aggregates over joins, and a rule that
# evaluates one sub-plan per output diff shows up there as a multiple.
# The AggClasses rows pin what Fig10 has no view for: AVG (alone and beside
# a SUM) and MIN/MAX over a base table and over a join, i.e. the two plan
# rewrites of DESIGN.md §16, plus AVG in tuple mode.
# The TableChurn rows (internal/rel: insert a bucket, DeleteWhere it,
# UpdateKey as many rows) have a constant accesses/op; they are there for
# their allocs/op column — the storage write path's allocations. The
# FeedApplyShape row is one feed_serving-sized apply round on a pinned epoch
# (one delete instance of 64 buckets, one insert instance of 12 160 rows,
# three indexes, one advance).
# The ManyViewsRound row is bsma_views' shape — eleven views, one of them a
# cascade, in one System, one MaintainAll — which no other gated row has: its
# accesses/op is the views' sum, and its allocs/op is where work that a round
# does once per view instead of once (log compaction, instance population)
# would show. ManyViewsRoundWorkers2 is the same round at Workers = 2, the
# one parallel lane (a level's views maintained concurrently): its
# accesses/op must equal ManyViewsRound's.
# The FeedJoin rows are the probe join under uniform and Zipf(1.1) keys:
# one charged lookup per driving row, so the zipf row is the cost of a few
# celebrity buckets being read once per tweet.
# Regenerate the baseline after a deliberate cost change with:
#   make bench-smoke BENCHJSON_FLAGS='-o testdata/bench_baseline.json'
# and carry the BenchmarkServing rows over (the serving lane gates against
# the same file).
BENCHJSON_FLAGS ?= -o BENCH.json -baseline testdata/bench_baseline.json
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFig12a_DiffSize$$/^d=200$$' -benchtime=1x . | tee bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkSPJNonConditionalUpdate$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkScanHeavyRecompute$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkBatch(Filter|HashJoin)$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkCascadeMaintenance$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkFig10$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkAggClasses$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkManyViewsRound(Workers2)?$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkFeedJoin$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^Benchmark(TableChurn|FeedApplyShape)$$' -benchtime=20x ./internal/rel | tee -a bench.txt
	$(GO) run ./cmd/benchjson $(BENCHJSON_FLAGS) bench.txt

# bench-smoke-serving is CI's bench-serving lane: BenchmarkServing's
# replay lane reports accesses/op — the deterministic apply+maintenance
# cost of one 100-write group-commit batch — and gates against the same
# baseline; the concurrent lane's p50-ns/p99-ns/rounds-per-sec are
# wall-clock and land in BENCH_7.json as informational columns only
# (benchjson refuses to gate on them).
BENCHJSON_SERVING_FLAGS ?= -o BENCH_7.json -baseline testdata/bench_baseline.json
bench-smoke-serving:
	$(GO) test -run '^$$' -bench '^BenchmarkServing$$' -benchtime=2000x . | tee bench_serving.txt
	$(GO) run ./cmd/benchjson $(BENCHJSON_SERVING_FLAGS) bench_serving.txt
