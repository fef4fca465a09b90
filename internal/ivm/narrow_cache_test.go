package ivm_test

import (
	"slices"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/expr"
	"idivm/internal/ivm"
)

// aggClassPlan builds the plans of BenchmarkAggClasses (bench_test.go): AVG,
// AVG beside SUM and MIN/MAX per topic over microblog ⋈ user (Q*3's input),
// MIN/MAX per city over user.
func aggClassPlan(t *testing.T, ds *bsma.Dataset, name string) algebra.Node {
	t.Helper()
	tweets := expr.C("user.tweetsnum")
	avg := algebra.Agg{Fn: algebra.AggAvg, Arg: tweets, As: "avg_tweets"}
	minmax := []algebra.Agg{{Fn: algebra.AggMin, Arg: tweets, As: "lo"}, {Fn: algebra.AggMax, Arg: tweets, As: "hi"}}
	qs3, err := ds.Plan("Q*3")
	if err != nil {
		t.Fatal(err)
	}
	perTopic := func(aggs ...algebra.Agg) algebra.Node {
		return algebra.NewGroupBy(qs3.(*algebra.GroupBy).Child, []string{"microblog.topic"}, aggs)
	}
	switch name {
	case "avg":
		return perTopic(avg)
	case "sum+avg":
		return perTopic(algebra.Agg{Fn: algebra.AggSum, Arg: expr.C("user.favornum"), As: "favors"}, avg)
	case "minmax":
		user, err := ds.DB.Table("user")
		if err != nil {
			t.Fatal(err)
		}
		return algebra.NewGroupBy(algebra.NewScan("user", "", user.Schema()), []string{"user.city"}, minmax)
	case "minmax-over-join":
		return perTopic(minmax...)
	}
	t.Fatalf("unknown aggregate class %q", name)
	return nil
}

// TestNarrowInputCaches pins the caches ID mode builds for the eight BSMA
// views, the three city views and the plans of BenchmarkAggClasses (in their
// benchmark mode): a γ's input cache holds the child's IDs, the grouping
// attributes and the aggregate arguments, nothing else, and each plan has
// as many caches as it had before input caches were narrowed — narrowing
// never adds one. A π put between a MIN/MAX γ and its #mult γ would make the
// outer γ's input a cache of its own: a third on minmax-over-join.
func TestNarrowInputCaches(t *testing.T) {
	ds := bsma.Build(bsma.Defaults(40))
	sys := ivm.NewSystem(ds.DB)
	registerBSMAViews(t, sys, ds)
	const tweetsFavors = "user.uid user.tweetsnum user.favornum"
	for _, c := range []struct {
		view   string
		caches int
		input  string // the input cache's attributes; "" for none
	}{
		{"Q7", 0, ""},
		{"Q10", 0, ""},
		{"Q11", 1, "retweets.rid retweets.uid microblog.mid microblog.uid " + tweetsFavors},
		{"Q15", 0, ""},
		{"Q18", 1, "mentions.meid mentions.uid microblog.mid microblog.uid " + tweetsFavors},
		{"Q*1", 1, "u1.uid f1.uid f1.fid f2.uid f2.fid u3.uid u3.tweetsnum"},
		{"Q*2", 1, "retweets.rid microblog.mid microblog.uid user.uid user.tweetsnum"},
		{"Q*3", 1, "microblog.mid microblog.topic " + tweetsFavors},
		{"city_rollup", 1, ""},
		{"city_hist", 0, ""},
		{"city_minmax", 1, ""},
	} {
		v, ok := sys.View(c.view)
		if !ok {
			t.Fatalf("%s not registered", c.view)
		}
		checkCaches(t, c.view, v.Script, c.caches, c.input)
	}
	for _, c := range []struct {
		class  string
		mode   ivm.Mode
		caches int
		input  string
	}{
		{"avg", ivm.ModeID, 2, "microblog.mid microblog.topic user.uid user.tweetsnum"},
		{"avg", ivm.ModeTuple, 0, ""},
		{"sum+avg", ivm.ModeID, 2, "microblog.mid microblog.topic " + tweetsFavors},
		{"minmax", ivm.ModeID, 1, ""},
		{"minmax-over-join", ivm.ModeID, 2, "microblog.mid microblog.topic user.uid user.tweetsnum"},
	} {
		ds := bsma.Build(bsma.Defaults(40))
		v, err := ivm.NewSystem(ds.DB).RegisterView("V", aggClassPlan(t, ds, c.class), c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		checkCaches(t, c.class+"/"+c.mode.String(), v.Script, c.caches, c.input)
	}
}

// checkCaches checks a script's cache count and the attributes of its input
// caches — the caches whose plan is not a γ, of which the plans above have at
// most one.
func checkCaches(t *testing.T, label string, s *ivm.Script, caches int, input string) {
	t.Helper()
	if len(s.Caches) != caches {
		t.Errorf("%s: %d caches, want %d", label, len(s.Caches), caches)
	}
	var got, want []string
	for _, c := range s.Caches {
		if _, isGamma := c.Plan.(*algebra.GroupBy); !isGamma {
			got = append(got, strings.Join(c.Plan.Schema().Attrs, " "))
		}
	}
	if input != "" {
		want = []string{input}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: input caches hold %q, want %q", label, got, want)
	}
}
