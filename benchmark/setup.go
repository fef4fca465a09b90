package main

// Set-up of the three workloads: build the data, register every view,
// attach the server where the workload has one. A set-up is what setup_s
// times; the drive in drive.go is common to all three.

import (
	"fmt"
	"math/rand"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/serve"
	"idivm/internal/workload"
)

// bench is one set-up instance of a workload, ready to be driven.
type bench struct {
	sz   sizes
	d    *db.Database
	sys  *ivm.System
	mods modGen
	page *pageGen
	// writeTables are the base tables the modification stream touches —
	// the ones whose epoch the first logged write of a round opens.
	writeTables []string
	// invariant, when set, is checked after every round outside the timers
	// (a delete of a missing key is silent on the serving path).
	invariant func() error

	fail failures
	// cal, when set, converts the gated timings into reference time.
	cal *calibrator

	// feed_serving only.
	srv           *serve.Server
	pending       []*serve.Pending // reused by every round
	enqueueTimes  *[]float64       // µs per Enqueue call; set by the traced run
	sub           *serve.Subscription
	lastDelta     int64 // Round of the last delta drained from sub
	deltaRows     int64 // Σ diff rows drained from sub
	deltaRounds   int64
	snapshotEvery int // every n-th read page also takes a full ViewSnapshot
	snapshotView  string

	registerTime time.Duration
}

func newBench(spec *workloadSpec, d *db.Database, smoke bool, k knobs) *bench {
	sys := ivm.NewSystem(d)
	sys.Workers, sys.OpWorkers, sys.BatchSize, sys.SkewThreshold = k.Workers, k.OpWorkers, k.BatchSize, k.SkewThreshold
	sz := spec.full
	if smoke {
		sz = spec.smoke
	}
	return &bench{sz: sz, d: d, sys: sys}
}

func (b *bench) register(name string, plan algebra.Node) error {
	t0 := time.Now()
	_, err := b.sys.RegisterView(name, plan, ivm.ModeID)
	b.registerTime += time.Since(t0)
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	return nil
}

// close stops everything the set-up started and waits for it.
func (b *bench) close() {
	if b.sub != nil {
		b.sub.Close()
	}
	if b.srv != nil {
		_ = b.srv.Close() // Close only reports the final round, which every Wait already returned
	}
}

// column reads one integer column of a base table into a slice indexed by
// the table's integer key (the generators' copy of the state they modify).
func column(d *db.Database, table, attr string) ([]int64, error) {
	t, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	ci := t.Schema().Index(attr)
	ki := t.Schema().KeyIndices()
	if ci < 0 || len(ki) != 1 {
		return nil, fmt.Errorf("column %s.%s: need one key column and the attribute", table, attr)
	}
	out := make([]int64, t.Len())
	for _, row := range t.Rows(rel.StatePost) {
		out[row[ki[0]].AsInt()] = row[ci].AsInt()
	}
	return out, nil
}

func scanOf(d *db.Database, table string) (*algebra.Scan, error) {
	t, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	return algebra.NewScan(table, "", t.Schema()), nil
}

// spjPlan is the view V of the paper's Figure 1b — workload.SPJPlan at
// Joins = 2 — with bare output names, because sqlview cannot name a view
// column that contains a dot and the read pages query the view in SQL.
func spjPlan(d *db.Database) (algebra.Node, error) {
	sp, err := scanOf(d, "parts")
	if err != nil {
		return nil, err
	}
	sdp, err := scanOf(d, "devices_parts")
	if err != nil {
		return nil, err
	}
	sd, err := scanOf(d, "devices")
	if err != nil {
		return nil, err
	}
	j := algebra.NewJoin(sp, sdp, expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid")))
	phones := algebra.NewSelect(sd, expr.Eq(expr.C("devices.category"), expr.StrLit("phone")))
	j = algebra.NewJoin(j, phones, expr.Eq(expr.C("devices_parts.did"), expr.C("devices.did")))
	return algebra.NewProject(j, []algebra.ProjItem{
		{E: expr.C("devices_parts.did"), As: "did"},
		{E: expr.C("devices_parts.pid"), As: "pid"},
		{E: expr.C("parts.price"), As: "price"},
	}), nil
}

func setupSPJ(spec *workloadSpec, seed int64, smoke bool, k knobs) (*bench, error) {
	parts := 20000
	if smoke {
		parts = 2000
	}
	ds := workload.Build(workload.Defaults(parts))
	b := newBench(spec, ds.DB, smoke, k)
	plan, err := spjPlan(ds.DB)
	if err != nil {
		return nil, err
	}
	if err := b.register("v", plan); err != nil {
		return nil, err
	}
	prices, err := column(ds.DB, "parts", "price")
	if err != nil {
		return nil, err
	}
	if parts%b.sz.M != 0 {
		return nil, fmt.Errorf("spj_price: M=%d must divide %d parts", b.sz.M, parts)
	}
	b.mods = newPriceGen(seed, prices, b.sz.M)
	b.page = newPageGen(seed, b.sz.K,
		readSpec{view: "v", col: "pid", cols: []string{"did", "pid", "price"}, draw: uniformKey(parts)})
	b.writeTables = []string{"parts"}
	return b, nil
}

// cityRollupPlan and cityHistPlan are the two-level cascade of the
// repository's BenchmarkCascadeMaintenance (bench_test.go), copied here
// because a test file cannot be imported: per-city sums over user, then a
// histogram of cities by tweet sum over that view.
func cityRollupPlan(d *db.Database) (algebra.Node, error) {
	user, err := scanOf(d, "user")
	if err != nil {
		return nil, err
	}
	g := algebra.NewGroupBy(user, []string{"user.city"}, []algebra.Agg{
		{Fn: algebra.AggSum, Arg: expr.C("user.tweetsnum"), As: "tweets"},
		{Fn: algebra.AggSum, Arg: expr.C("user.favornum"), As: "favors"},
	})
	return algebra.NewProject(g, []algebra.ProjItem{
		{E: expr.C("user.city"), As: "city"},
		{E: expr.C("tweets"), As: "tweets"},
		{E: expr.C("favors"), As: "favors"},
	}), nil
}

func cityHistPlan(d *db.Database) (algebra.Node, error) {
	p, err := scanOf(d, "city_rollup")
	if err != nil {
		return nil, err
	}
	return algebra.NewGroupBy(p, []string{"city_rollup.tweets"}, []algebra.Agg{
		{Fn: algebra.AggCount, As: "cities"},
		{Fn: algebra.AggSum, Arg: expr.C("city_rollup.favors"), As: "favors"},
	}), nil
}

// cityMinMaxPlan is a γ-MIN/MAX view: the extremes of tweetsnum per city,
// the aggregate class whose maintenance under updates needs the ordered
// multiset cache.
func cityMinMaxPlan(d *db.Database) (algebra.Node, error) {
	user, err := scanOf(d, "user")
	if err != nil {
		return nil, err
	}
	return algebra.NewGroupBy(user, []string{"user.city"}, []algebra.Agg{
		{Fn: algebra.AggMin, Arg: expr.C("user.tweetsnum"), As: "min_tweets"},
		{Fn: algebra.AggMax, Arg: expr.C("user.tweetsnum"), As: "max_tweets"},
	}), nil
}

// bsmaViewNames maps the Figure 10 query names to SQL-safe view names.
var bsmaViewNames = map[string]string{
	"Q7": "q7", "Q10": "q10", "Q11": "q11", "Q15": "q15", "Q18": "q18",
	"Q*1": "qs1", "Q*2": "qs2", "Q*3": "qs3",
}

func setupBSMA(spec *workloadSpec, seed int64, smoke bool, k knobs) (*bench, error) {
	users := 1000
	if smoke {
		users = 100
	}
	ds := bsma.Build(bsma.Defaults(users))
	b := newBench(spec, ds.DB, smoke, k)
	for _, q := range bsma.QueryNames() {
		plan, err := ds.Plan(q)
		if err != nil {
			return nil, err
		}
		if err := b.register(bsmaViewNames[q], plan); err != nil {
			return nil, err
		}
	}
	// In this order: city_hist scans the city_rollup view.
	for _, v := range []struct {
		name string
		plan func(*db.Database) (algebra.Node, error)
	}{{"city_rollup", cityRollupPlan}, {"city_hist", cityHistPlan}, {"city_minmax", cityMinMaxPlan}} {
		plan, err := v.plan(ds.DB)
		if err != nil {
			return nil, err
		}
		if err := b.register(v.name, plan); err != nil {
			return nil, err
		}
	}
	tweets, err := column(ds.DB, "user", "tweetsnum")
	if err != nil {
		return nil, err
	}
	if users%b.sz.M != 0 {
		return nil, fmt.Errorf("bsma_views: M=%d must divide %d users", b.sz.M, users)
	}
	b.mods = newUserGen(seed, tweets, b.sz.M)
	// The views' key columns carry dotted names sqlview cannot reference,
	// so the pages read through secondary keys with bare names.
	b.page = newPageGen(seed, b.sz.K,
		readSpec{view: "q7", col: "tweetsnum", cols: []string{"tweetsnum", "favornum"}, draw: uniformKey(1000)},
		readSpec{view: "qs2", col: "rt_count", cols: []string{"rt_tweets", "rt_count"},
			draw: func(rng *rand.Rand) int64 { return 1 + int64(rng.Intn(4)) }},
		readSpec{view: "city_hist", col: "cities", cols: []string{"cities", "favors"},
			draw: func(rng *rand.Rand) int64 { return 1 + int64(rng.Intn(2)) }})
	b.writeTables = []string{"user"}
	return b, nil
}

func setupFeed(spec *workloadSpec, seed int64, smoke bool, k knobs) (*bench, error) {
	p := workload.SkewParams{Users: 1000, FollowsPerUser: 4, ZipfS: 1.1, Seed: 1}
	tweets := 500
	if smoke {
		p.Users, tweets = 100, 50
	}
	// Tweets: 0 leaves the builder to draw only the follow graph, which is
	// therefore the same for every --seed; the tweets come from the
	// stratified generator.
	ds := workload.BuildSkew(p)
	b := newBench(spec, ds.DB, smoke, k)
	gen, initial := newTweetGen(seed, p.Users, tweets, b.sz.M, p.ZipfS)
	tt, err := ds.DB.Table("tweets")
	if err != nil {
		return nil, err
	}
	for _, tw := range initial {
		if err := tt.Insert(rel.Tuple{rel.Int(tw[0]), rel.Int(tw[1])}); err != nil {
			return nil, err
		}
	}
	ds.DB.Counter().Reset()
	if err := b.register("feed", ds.FeedPlan()); err != nil {
		return nil, err
	}
	b.mods = gen
	edges := p.Users * p.FollowsPerUser
	hot := newZipfCDF(edges, p.ZipfS)
	b.page = newPageGen(seed, b.sz.K,
		readSpec{view: "feed", col: "fid", cols: []string{"fid", "twid", "uid"},
			draw: func(rng *rand.Rand) int64 { return int64(hot.at(rng.Float64())) }})
	b.writeTables = []string{"tweets"}
	b.snapshotEvery, b.snapshotView = 16, "feed"
	b.invariant = func() error {
		if n := tt.Len(); n != tweets {
			return fmt.Errorf("tweets has %d rows, want %d: an insert or delete changed nothing", n, tweets)
		}
		return nil
	}
	// MaxBatch = M and a MaxDelay no round comes near, so every batch is
	// cut by count and a round of the drive is one round of the dispatcher.
	b.srv = serve.New(ds.DB, b.sys, serve.Options{MaxBatch: b.sz.M, MaxDelay: time.Second, Queue: 1024})
	// 256 deltas: the open-loop phase of the traced run commits rounds
	// while nobody drains, and a full buffer would block the dispatcher.
	b.sub, err = b.srv.Subscribe("feed", 256)
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}
