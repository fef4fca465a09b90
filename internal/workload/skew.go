package workload

import (
	"math/rand"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// SkewParams configures the skewed-join workload: a tweets ⋈ follows feed
// view whose join keys are drawn from a Zipf distribution, so a handful of
// celebrity users own most follow edges AND author most new tweets: the
// per-round diff keeps probing the same few keys into the same huge stored
// buckets. It is the data of the benchmark's feed_serving workload and of
// BenchmarkFeedJoin.
type SkewParams struct {
	Users          int     // number of user ids keys are drawn from
	FollowsPerUser int     // average: follow edges = Users*FollowsPerUser
	Tweets         int     // initial tweet count
	DiffSize       int     // tweets inserted per maintenance round
	ZipfS          float64 // > 1: Zipf exponent of the key draws; 0 = uniform
	Seed           int64
}

// SkewDefaults returns BenchmarkFeedJoin's defaults at the given user count:
// Zipf(1.1) keys, 4 follow edges per user on average, a 200-tweet diff.
func SkewDefaults(users int) SkewParams {
	return SkewParams{
		Users:          users,
		FollowsPerUser: 4,
		Tweets:         users / 2,
		DiffSize:       200,
		ZipfS:          1.1,
		Seed:           1,
	}
}

// SkewDataset is a generated skewed-join database plus the bookkeeping to
// drive tweet-insert rounds.
type SkewDataset struct {
	DB        *db.Database
	Params    SkewParams
	rng       *rand.Rand
	zipf      *rand.Zipf
	nextTweet int64
}

// userID draws one author/followee id: Zipf-distributed when ZipfS > 1
// (rank 0 is the top celebrity), uniform otherwise.
func (ds *SkewDataset) userID() int64 {
	if ds.zipf != nil {
		return int64(ds.zipf.Uint64())
	}
	return int64(ds.rng.Intn(ds.Params.Users))
}

// BuildSkew generates the dataset on the $IDIVM_ENGINE-selected backend:
// follows(fid, uid) with uid ~ the key distribution (celebrities collect
// huge follower buckets) and tweets(twid, uid) with the same author
// distribution.
func BuildSkew(p SkewParams) *SkewDataset {
	return BuildSkewWith(p, storage.FromEnv())
}

// BuildSkewWith is BuildSkew on an explicit storage engine.
func BuildSkewWith(p SkewParams, e storage.Engine) *SkewDataset {
	rng := rand.New(rand.NewSource(p.Seed))
	ds := &SkewDataset{DB: db.NewWith(e), Params: p, rng: rng}
	if p.ZipfS > 1 {
		ds.zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Users-1))
	}

	follows := ds.DB.MustCreateTable("follows", rel.NewSchema([]string{"fid", "uid"}, []string{"fid"}))
	for i := 0; i < p.Users*p.FollowsPerUser; i++ {
		follows.MustInsert(rel.Int(int64(i)), rel.Int(ds.userID()))
	}

	tweets := ds.DB.MustCreateTable("tweets", rel.NewSchema([]string{"twid", "uid"}, []string{"twid"}))
	for i := 0; i < p.Tweets; i++ {
		tweets.MustInsert(rel.Int(int64(i)), rel.Int(ds.userID()))
	}
	ds.nextTweet = int64(p.Tweets)
	ds.DB.Counter().Reset()
	return ds
}

// FeedPlan builds the feed view: every (tweet, follower) delivery pair,
// tweets ⋈ follows on the author id. Maintaining it under tweet inserts
// probes follows on uid — the skewed access pattern BenchmarkFeedJoin measures.
func (ds *SkewDataset) FeedPlan() algebra.Node {
	tweets, _ := ds.DB.Table("tweets")
	follows, _ := ds.DB.Table("follows")
	st := algebra.NewScan("tweets", "", tweets.Schema())
	sf := algebra.NewScan("follows", "", follows.Schema())
	j := algebra.NewJoin(st, sf, expr.Eq(expr.C("tweets.uid"), expr.C("follows.uid")))
	return algebra.NewProject(j, []algebra.ProjItem{
		{E: expr.C("follows.fid"), As: "fid"},
		{E: expr.C("tweets.twid"), As: "twid"},
		{E: expr.C("tweets.uid"), As: "uid"},
	})
}

// ApplyTweetInserts performs one round of DiffSize tweet inserts with
// authors drawn from the key distribution — under Zipf keys the diff hits
// the same celebrity authors over and over.
func (ds *SkewDataset) ApplyTweetInserts() error {
	for i := 0; i < ds.Params.DiffSize; i++ {
		id := ds.nextTweet
		ds.nextTweet++
		if err := ds.DB.Insert("tweets", rel.Tuple{rel.Int(id), rel.Int(ds.userID())}); err != nil {
			return err
		}
	}
	return nil
}
