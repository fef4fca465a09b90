// Package bsma generates a scaled-down synthetic instance of the
// Benchmark for Social Media Analytics used in the paper's Section 7.1
// (Figure 9) and defines the eight analytics views of the experiment:
// BSMA queries Q7, Q10, Q11, Q15 and Q18 (minimally extended per the
// paper: SELECT extended with tweetsnum and favornum, ORDER BY/LIMIT and
// ID parameters removed) plus the three additional aggregate views Q*1,
// Q*2 and Q*3 whose aggregates are affected by the update workload.
//
// The generator preserves the paper's table-size ratios (Figure 9a):
// friendlist = users × friends-per-user, retweets = tweets × 10% × 2,
// mentions = tweets × 20% × 2, event links = tweets × 40% × 2 — at a
// configurable absolute scale.
package bsma

import (
	"fmt"
	"math/rand"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Params scales the generated instance.
type Params struct {
	Users          int
	FriendsPerUser int
	TweetsPerUser  int
	Cities         int
	Topics         int
	Events         int
	// TimeRange is the [0, TimeRange) timestamp domain; queries select the
	// first quarter of it.
	TimeRange int
	// UpdateCount is the number of user-attribute update diffs per round
	// (the paper uses 100).
	UpdateCount int
	Seed        int64
}

// Defaults returns paper-proportional parameters at the given user count
// (the paper's instance has 1M users, 100 friends and 20 tweets per user;
// friends and tweets are kept smaller here to bound laptop memory while
// preserving every derived ratio that the speedups depend on).
func Defaults(users int) Params {
	return Params{
		Users:          users,
		FriendsPerUser: 10,
		TweetsPerUser:  8,
		Cities:         20,
		Topics:         25,
		Events:         30,
		TimeRange:      1000,
		UpdateCount:    100,
		Seed:           7,
	}
}

// Dataset holds the generated database.
type Dataset struct {
	DB     *db.Database
	Params Params
	rng    *rand.Rand
}

// Build generates the instance.
func Build(p Params) *Dataset {
	rng := rand.New(rand.NewSource(p.Seed))
	d := db.New()

	user := d.MustCreateTable("user", rel.NewSchema(
		[]string{"uid", "city", "tweetsnum", "favornum"}, []string{"uid"}))
	for u := 0; u < p.Users; u++ {
		user.MustInsert(rel.Int(int64(u)),
			rel.String(fmt.Sprintf("city%d", rng.Intn(p.Cities))),
			rel.Int(int64(rng.Intn(1000))),
			rel.Int(int64(rng.Intn(500))))
	}

	fl := d.MustCreateTable("friendlist", rel.NewSchema(
		[]string{"uid", "fid"}, []string{"uid", "fid"}))
	for u := 0; u < p.Users; u++ {
		for k := 0; k < p.FriendsPerUser; k++ {
			f := rng.Intn(p.Users)
			if f == u {
				f = (f + 1) % p.Users
			}
			if _, dup := fl.Get(rel.StatePost, []rel.Value{rel.Int(int64(u)), rel.Int(int64(f))}); dup {
				continue
			}
			fl.MustInsert(rel.Int(int64(u)), rel.Int(int64(f)))
		}
	}

	mb := d.MustCreateTable("microblog", rel.NewSchema(
		[]string{"mid", "uid", "ts", "topic"}, []string{"mid"}))
	nTweets := p.Users * p.TweetsPerUser
	for m := 0; m < nTweets; m++ {
		mb.MustInsert(rel.Int(int64(m)),
			rel.Int(int64(rng.Intn(p.Users))),
			rel.Int(int64(rng.Intn(p.TimeRange))),
			rel.String(fmt.Sprintf("topic%d", rng.Intn(p.Topics))))
	}

	// retweets: 10% of tweets × 2 retweets each.
	rt := d.MustCreateTable("retweets", rel.NewSchema(
		[]string{"rid", "mid", "uid", "ts"}, []string{"rid"}))
	rid := 0
	for m := 0; m < nTweets; m += 10 {
		for k := 0; k < 2; k++ {
			rt.MustInsert(rel.Int(int64(rid)), rel.Int(int64(m)),
				rel.Int(int64(rng.Intn(p.Users))),
				rel.Int(int64(rng.Intn(p.TimeRange))))
			rid++
		}
	}

	// mentions: 20% of tweets × 2 mentions each.
	mn := d.MustCreateTable("mentions", rel.NewSchema(
		[]string{"meid", "mid", "uid", "ts"}, []string{"meid"}))
	meid := 0
	for m := 0; m < nTweets; m += 5 {
		for k := 0; k < 2; k++ {
			mn.MustInsert(rel.Int(int64(meid)), rel.Int(int64(m)),
				rel.Int(int64(rng.Intn(p.Users))),
				rel.Int(int64(rng.Intn(p.TimeRange))))
			meid++
		}
	}

	// rel_event_microblog: 40% of tweets × 2 events each.
	ev := d.MustCreateTable("rel_event_microblog", rel.NewSchema(
		[]string{"reid", "event", "mid"}, []string{"reid"}))
	reid := 0
	for m := 0; m < nTweets; m += 5 {
		for k := 0; k < 4; k++ { // 40% × 2 ≈ every 5th tweet × 4 links
			ev.MustInsert(rel.Int(int64(reid)),
				rel.Int(int64(rng.Intn(p.Events))),
				rel.Int(int64(m)))
			reid++
		}
	}

	d.Counter().Reset()
	return &Dataset{DB: d, Params: p, rng: rng}
}

// TableRatios returns the generated cardinalities for ratio checks
// (Figure 9a's proportions).
func (ds *Dataset) TableRatios() map[string]int {
	out := map[string]int{}
	for _, name := range ds.DB.TableNames() {
		t, _ := ds.DB.Table(name)
		out[name] = t.Len()
	}
	return out
}

// ApplyUserUpdates performs one round of the paper's update workload:
// UpdateCount random users get new tweetsnum and favornum values.
func (ds *Dataset) ApplyUserUpdates() error {
	p := ds.Params
	seen := map[int]bool{}
	for len(seen) < p.UpdateCount && len(seen) < p.Users {
		u := ds.rng.Intn(p.Users)
		if seen[u] {
			continue
		}
		seen[u] = true
		if _, err := ds.DB.Update("user", []rel.Value{rel.Int(int64(u))},
			[]string{"tweetsnum", "favornum"},
			[]rel.Value{rel.Int(int64(ds.rng.Intn(1000))), rel.Int(int64(ds.rng.Intn(500)))}); err != nil {
			return err
		}
	}
	return nil
}

func (ds *Dataset) scan(table, alias string) *algebra.Scan {
	t, err := ds.DB.Table(table)
	if err != nil {
		panic(err)
	}
	return algebra.NewScan(table, alias, t.Schema())
}

func (ds *Dataset) tsUpper() expr.Expr {
	return expr.IntLit(int64(ds.Params.TimeRange / 4))
}

// QueryNames lists the eight views of Figure 10 in order.
func QueryNames() []string {
	return []string{"Q7", "Q10", "Q11", "Q15", "Q18", "Q*1", "Q*2", "Q*3"}
}

// Plan builds the named view's algebra plan.
func (ds *Dataset) Plan(name string) (algebra.Node, error) {
	switch name {
	case "Q7":
		return ds.q7(), nil
	case "Q10":
		return ds.q10(), nil
	case "Q11":
		return ds.q11(), nil
	case "Q15":
		return ds.q15(), nil
	case "Q18":
		return ds.q18(), nil
	case "Q*1":
		return ds.qs1(), nil
	case "Q*2":
		return ds.qs2(), nil
	case "Q*3":
		return ds.qs3(), nil
	}
	return nil, fmt.Errorf("bsma: unknown query %q", name)
}

// q7: mentioned users within a time range — σ_ts(mentions) ⋈ microblog ⋈
// user, SELECT extended with tweetsnum/favornum.
func (ds *Dataset) q7() algebra.Node {
	mn := ds.scan("mentions", "")
	mb := ds.scan("microblog", "")
	u := ds.scan("user", "")
	sel := algebra.NewSelect(mn, expr.Lt(expr.C("mentions.ts"), ds.tsUpper()))
	j1 := algebra.NewJoin(sel, mb, expr.Eq(expr.C("mentions.mid"), expr.C("microblog.mid")))
	j2 := algebra.NewJoin(j1, u, expr.Eq(expr.C("mentions.uid"), expr.C("user.uid")))
	return algebra.NewProject(j2, []algebra.ProjItem{
		{E: expr.C("mentions.meid"), As: "mentions.meid"},
		{E: expr.C("user.uid"), As: "user.uid"},
		{E: expr.C("user.tweetsnum"), As: "tweetsnum"},
		{E: expr.C("user.favornum"), As: "favornum"},
	})
}

// q10: users who are retweeted within a time range — a 4-relation chain:
// σ_ts(retweets) ⋈ microblog ⋈ author ⋈ retweeter.
func (ds *Dataset) q10() algebra.Node {
	rt := ds.scan("retweets", "")
	mb := ds.scan("microblog", "")
	author := ds.scan("user", "author")
	retweeter := ds.scan("user", "retweeter")
	sel := algebra.NewSelect(rt, expr.Lt(expr.C("retweets.ts"), ds.tsUpper()))
	j1 := algebra.NewJoin(sel, mb, expr.Eq(expr.C("retweets.mid"), expr.C("microblog.mid")))
	j2 := algebra.NewJoin(j1, author, expr.Eq(expr.C("microblog.uid"), expr.C("author.uid")))
	j3 := algebra.NewJoin(j2, retweeter, expr.Eq(expr.C("retweets.uid"), expr.C("retweeter.uid")))
	return algebra.NewProject(j3, []algebra.ProjItem{
		{E: expr.C("retweets.rid"), As: "retweets.rid"},
		{E: expr.C("author.uid"), As: "author.uid"},
		{E: expr.C("author.tweetsnum"), As: "author_tweetsnum"},
		{E: expr.C("author.favornum"), As: "author_favornum"},
		{E: expr.C("retweeter.tweetsnum"), As: "retweeter_tweetsnum"},
	})
}

// q11: pairs of (author, retweeter) grouped by retweeting times, with the
// retweeter's counters as additional grouping attributes (the paper's
// SELECT extension; they are functionally determined by the retweeter).
func (ds *Dataset) q11() algebra.Node {
	rt := ds.scan("retweets", "")
	mb := ds.scan("microblog", "")
	retweeter := ds.scan("user", "")
	j1 := algebra.NewJoin(rt, mb, expr.Eq(expr.C("retweets.mid"), expr.C("microblog.mid")))
	j2 := algebra.NewJoin(j1, retweeter, expr.Eq(expr.C("retweets.uid"), expr.C("user.uid")))
	return algebra.NewGroupBy(j2,
		[]string{"microblog.uid", "retweets.uid", "user.tweetsnum", "user.favornum"},
		[]algebra.Agg{{Fn: algebra.AggCount, As: "times"}})
}

// q15: users talking about events within a time range — rel_event ⋈
// σ_ts(microblog) ⋈ user; the widest view of the workload.
func (ds *Dataset) q15() algebra.Node {
	ev := ds.scan("rel_event_microblog", "")
	mb := ds.scan("microblog", "")
	u := ds.scan("user", "")
	sel := algebra.NewSelect(mb, expr.Lt(expr.C("microblog.ts"), ds.tsUpper()))
	j1 := algebra.NewJoin(ev, sel, expr.Eq(expr.C("rel_event_microblog.mid"), expr.C("microblog.mid")))
	j2 := algebra.NewJoin(j1, u, expr.Eq(expr.C("microblog.uid"), expr.C("user.uid")))
	return algebra.NewProject(j2, []algebra.ProjItem{
		{E: expr.C("rel_event_microblog.reid"), As: "rel_event_microblog.reid"},
		{E: expr.C("rel_event_microblog.event"), As: "event"},
		{E: expr.C("user.uid"), As: "user.uid"},
		{E: expr.C("user.tweetsnum"), As: "tweetsnum"},
		{E: expr.C("user.favornum"), As: "favornum"},
	})
}

// q18: pairwise count of mentions (mentioner = tweet author, mentioned =
// mention target), with the mentioned user's counters as grouping attrs.
func (ds *Dataset) q18() algebra.Node {
	mn := ds.scan("mentions", "")
	mb := ds.scan("microblog", "")
	u := ds.scan("user", "")
	j1 := algebra.NewJoin(mn, mb, expr.Eq(expr.C("mentions.mid"), expr.C("microblog.mid")))
	j2 := algebra.NewJoin(j1, u, expr.Eq(expr.C("mentions.uid"), expr.C("user.uid")))
	return algebra.NewGroupBy(j2,
		[]string{"microblog.uid", "mentions.uid", "user.tweetsnum", "user.favornum"},
		[]algebra.Agg{{Fn: algebra.AggCount, As: "times"}})
}

// qs1: aggregate of friends of friends within the same city — a long join
// chain whose selective same-city condition sits at its very end, the
// shape the paper credits for Q*1's large speedup.
func (ds *Dataset) qs1() algebra.Node {
	u1 := ds.scan("user", "u1")
	f1 := ds.scan("friendlist", "f1")
	f2 := ds.scan("friendlist", "f2")
	u3 := ds.scan("user", "u3")
	j1 := algebra.NewJoin(u1, f1, expr.Eq(expr.C("u1.uid"), expr.C("f1.uid")))
	j2 := algebra.NewJoin(j1, f2, expr.Eq(expr.C("f1.fid"), expr.C("f2.uid")))
	j3 := algebra.NewJoin(j2, u3, expr.And(
		expr.Eq(expr.C("f2.fid"), expr.C("u3.uid")),
		expr.Eq(expr.C("u1.city"), expr.C("u3.city"))))
	return algebra.NewGroupBy(j3, []string{"u1.uid"},
		[]algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("u3.tweetsnum"), As: "fof_tweets"},
			{Fn: algebra.AggCount, As: "fof_count"},
		})
}

// qs2: aggregate of retweeters for every user: per original author, the
// sum of their retweeters' tweet counters.
func (ds *Dataset) qs2() algebra.Node {
	rt := ds.scan("retweets", "")
	mb := ds.scan("microblog", "")
	retweeter := ds.scan("user", "")
	j1 := algebra.NewJoin(rt, mb, expr.Eq(expr.C("retweets.mid"), expr.C("microblog.mid")))
	j2 := algebra.NewJoin(j1, retweeter, expr.Eq(expr.C("retweets.uid"), expr.C("user.uid")))
	return algebra.NewGroupBy(j2, []string{"microblog.uid"},
		[]algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("user.tweetsnum"), As: "rt_tweets"},
			{Fn: algebra.AggCount, As: "rt_count"},
		})
}

// qs3: aggregate of users who tweet about topics: per topic, the sum of
// the tweeting users' counters.
func (ds *Dataset) qs3() algebra.Node {
	mb := ds.scan("microblog", "")
	u := ds.scan("user", "")
	j := algebra.NewJoin(mb, u, expr.Eq(expr.C("microblog.uid"), expr.C("user.uid")))
	return algebra.NewGroupBy(j, []string{"microblog.topic"},
		[]algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("user.tweetsnum"), As: "topic_tweets"},
			{Fn: algebra.AggSum, Arg: expr.C("user.favornum"), As: "topic_favor"},
		})
}
