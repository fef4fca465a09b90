package ivm_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/harness"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// bsmaOrCityPlan builds a BSMA query or one of harness.CityViews by name;
// city_hist needs city_rollup registered first.
func bsmaOrCityPlan(t *testing.T, ds *bsma.Dataset, name string) algebra.Node {
	t.Helper()
	plan, err := ds.Plan(name)
	if slices.Contains(harness.CityViews, name) {
		plan, err = harness.CityPlan(ds.DB, name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func mixedParams() bsma.Params {
	p := bsma.Defaults(60)
	p.FriendsPerUser, p.TweetsPerUser = 3, 4
	p.Cities, p.Topics = 5, 6
	return p
}

var mixedViews = []string{"Q*2", "Q*3", "city_rollup", "city_hist"}

// mixedCell is one (engine, executor) configuration of the mixed-round
// differential, with its own identically seeded dataset and stream.
type mixedCell struct {
	label string
	ds    *bsma.Dataset
	sys   *ivm.System
	st    mixedStream
	reps  []*ivm.Report
	count rel.CostCounter
}

// newMixedCell builds the cell's dataset on mem or, when e is not nil, on e.
func newMixedCell(t *testing.T, label string, e storage.Engine, workers int, interpret bool) *mixedCell {
	t.Helper()
	p := mixedParams()
	ds := bsma.Build(p)
	if e != nil {
		ds.DB = storagetest.Copy(ds.DB, e)
	}
	sys := ivm.NewSystem(ds.DB)
	sys.Workers, sys.Interpret = workers, interpret
	for _, name := range mixedViews {
		if _, err := sys.RegisterView(name, bsmaOrCityPlan(t, ds, name), ivm.ModeID); err != nil {
			t.Fatalf("%s: register %s: %v", label, name, err)
		}
	}
	tweets := p.Users * p.TweetsPerUser
	return &mixedCell{label: label, ds: ds, sys: sys, st: mixedStream{
		rng: rand.New(rand.NewSource(4242)), users: p.Users, tweets: tweets,
		nextUser: p.Users, nextTweet: tweets, nextRetweet: 2 * ((tweets + 9) / 10),
		topicCarrier: -1, uidCarrier: -1, parkedTopic: -1, parkedUID: -1, parkedCitizen: -1,
	}}
}

// mixedStream generates rounds in which key-moving updates
// (microblog.topic, microblog.uid, user.city) and value updates, inserts
// and deletes land on the same groups. On top of random traffic every
// round scripts the two group-lifecycle corners: groups created by a move
// (a carrier tweet planted a round earlier is re-tagged to a topic nobody
// uses; another, which has a retweet, is handed to an author inserted in
// this round; a user moves to an empty city and has its counters updated
// in the same round) and, one round later, those groups losing their last
// tuple again — by a move back or by a delete, alternating.
//
// One tweet never changes topic and uid in the same round: that is an open
// gap in the join rules (testdata/mixed_round_seeds.txt, seed 2; ROADMAP
// item 4), not in what this test covers.
type mixedStream struct {
	rng                              *rand.Rand
	users, tweets                    int
	nextUser, nextTweet, nextRetweet int
	// Carriers planted last round, and what last round parked in fresh
	// groups; -1 until the stream has produced one.
	topicCarrier, uidCarrier              int
	parkedTopic, parkedUID, parkedCitizen int
}

func freshTopic(round int) string { return fmt.Sprintf("fresh-topic-%d", round) }
func freshCity(round int) string  { return fmt.Sprintf("fresh-city-%d", round) }

func (s *mixedStream) round(t *testing.T, d *db.Database, round int) {
	t.Helper()
	ints := func(vs ...int) []rel.Value {
		out := make([]rel.Value, len(vs))
		for i, v := range vs {
			out[i] = rel.Int(int64(v))
		}
		return out
	}
	must := func(_ bool, err error) { // random traffic may name a key an earlier round deleted
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	insert := func(table string, vals ...rel.Value) {
		t.Helper()
		if err := d.Insert(table, rel.Tuple(vals)); err != nil {
			t.Fatal(err)
		}
	}
	p := mixedParams()
	num := func(n int) rel.Value { return rel.Int(int64(n)) }
	topic := func() rel.Value { return rel.String(fmt.Sprintf("topic%d", s.rng.Intn(p.Topics))) }
	city := func() rel.Value { return rel.String(fmt.Sprintf("city%d", s.rng.Intn(p.Cities))) }
	counters := func(u int) {
		must(d.Update("user", ints(u), []string{"tweetsnum", "favornum"}, ints(s.rng.Intn(1000), s.rng.Intn(500))))
	}
	tweet := func() int { // a new tweet with one retweet
		mid := s.nextTweet
		s.nextTweet++
		insert("microblog", num(mid), num(s.rng.Intn(s.users)), num(s.rng.Intn(p.TimeRange)), topic())
		insert("retweets", num(s.nextRetweet), num(mid), num(s.rng.Intn(s.users)), num(s.rng.Intn(p.TimeRange)))
		s.nextRetweet++
		return mid
	}
	moved := map[int]string{} // tweet → the attribute this round changed
	move := func(mid int, attr string, v rel.Value) {
		if was, ok := moved[mid]; ok && was != attr {
			return
		}
		moved[mid] = attr
		must(d.Update("microblog", ints(mid), []string{attr}, []rel.Value{v}))
	}

	// Last round's fresh groups lose their only tuple.
	if s.parkedTopic >= 0 {
		if round%2 == 0 {
			move(s.parkedTopic, "topic", topic())
			move(s.parkedUID, "uid", num(s.rng.Intn(s.users)))
		} else {
			must(d.Delete("microblog", ints(s.parkedTopic)))
			must(d.Delete("microblog", ints(s.parkedUID)))
		}
		must(d.Update("user", ints(s.parkedCitizen), []string{"city"}, []rel.Value{city()}))
	}

	// Random traffic over the original keyspace, so it collides with
	// itself and with the groups the scripted moves leave and enter.
	for i := 0; i < 6; i++ {
		counters(s.rng.Intn(s.users))
	}
	for i := 0; i < 3; i++ {
		move(s.rng.Intn(s.tweets), "topic", topic())
		move(s.rng.Intn(s.tweets), "uid", num(s.rng.Intn(s.users)))
		must(d.Update("user", ints(s.rng.Intn(s.users)), []string{"city"}, []rel.Value{city()}))
		tweet()
		must(d.Delete("microblog", ints(s.rng.Intn(s.tweets))))
	}

	// This round's groups created by a move.
	if s.topicCarrier >= 0 {
		author := s.nextUser
		s.nextUser++
		insert("user", num(author), city(), num(1), num(1))
		move(s.topicCarrier, "topic", rel.String(freshTopic(round)))
		move(s.uidCarrier, "uid", num(author))
		s.parkedTopic, s.parkedUID = s.topicCarrier, s.uidCarrier
		s.parkedCitizen = s.rng.Intn(s.users)
		must(d.Update("user", ints(s.parkedCitizen), []string{"city"}, []rel.Value{rel.String(freshCity(round))}))
		counters(s.parkedCitizen)
	}
	s.topicCarrier, s.uidCarrier = tweet(), tweet()
}

// hasGroup reports whether the view holds a row whose first column equals v.
func hasGroup(t *testing.T, d *db.Database, view string, v rel.Value) bool {
	t.Helper()
	for _, row := range viewState(t, d, view).Tuples {
		if row[0].Same(v) {
			return true
		}
	}
	return false
}

// TestMixedRoundsDifferential covers what the per-diff dispatch of the γ
// rules added: rounds in which Table 7 (on the moved tuples' groups) and
// Tables 9/11 (on every other diff) both fire for one view and must not
// overlap. After every round each view equals its recomputation; the
// compiled executor matches the interpreted oracle in state, per-step
// reports and counters; maintaining the views concurrently (Workers 4)
// matches the sequential run the same way; and the hash-partitioned test
// engine agrees on state.
func TestMixedRoundsDifferential(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 8
	}
	ref := newMixedCell(t, "compiled", nil, 1, false)
	exact := []*mixedCell{
		newMixedCell(t, "interpreted", nil, 1, true),
		newMixedCell(t, "workers4", nil, 4, false),
	}
	sharded := newMixedCell(t, "sharded8/compiled", storagetest.Sharded(8), 1, false)
	all := append([]*mixedCell{ref, sharded}, exact...)

	// The dispatch under test is in play: Q*3 and Q*2 take the mixed row
	// (ΔG ▷ ΔK), the γ over a base-table scan does not.
	for view, mixed := range map[string]bool{"Q*3": true, "Q*2": true, "city_rollup": false} {
		v, _ := ref.sys.View(view)
		script := v.Script.String()
		if !strings.Contains(script, "ΔK") || strings.Contains(script, "ΔG") != mixed {
			t.Fatalf("%s: unexpected dispatch (mixed=%v):\n%s", view, mixed, script)
		}
	}

	for round := 0; round < rounds; round++ {
		for _, c := range all {
			c.st.round(t, c.ds.DB, round)
			c.ds.DB.Counter().Reset()
			reps, err := c.sys.MaintainAll()
			if err != nil {
				t.Fatalf("round %d %s: %v", round, c.label, err)
			}
			c.reps, c.count = reps, *c.ds.DB.Counter()
			for _, view := range mixedViews {
				if err := c.sys.CheckConsistent(view); err != nil {
					t.Fatalf("round %d %s: %v", round, c.label, err)
				}
			}
		}
		for _, c := range exact {
			for i := range ref.reps {
				samePhases(t, fmt.Sprintf("round %d %s %s", round, c.label, mixedViews[i]), ref.reps[i], c.reps[i])
			}
			if ref.count != c.count {
				t.Fatalf("round %d %s: counters differ:\n %s %v\n %s %v", round, c.label, ref.label, ref.count, c.label, c.count)
			}
		}
		for _, view := range mixedViews {
			if want, got := viewState(t, ref.ds.DB, view), viewState(t, sharded.ds.DB, view); !want.EqualSet(got) {
				t.Fatalf("round %d %s: %s diverges from %s:\n%v\n%v", round, view, sharded.label, ref.label, got.Sorted(), want.Sorted())
			}
		}

		// The scripted corners happened: this round's fresh groups exist
		// (the first round only plants the carrier), last round's are gone.
		d, author := ref.ds.DB, ref.st.nextUser-1
		if round > 0 && !(hasGroup(t, d, "Q*3", rel.String(freshTopic(round))) &&
			hasGroup(t, d, "city_rollup", rel.String(freshCity(round))) &&
			hasGroup(t, d, "Q*2", rel.Int(int64(author)))) {
			t.Fatalf("round %d: a group created by a move is missing", round)
		}
		if round > 1 && (hasGroup(t, d, "Q*3", rel.String(freshTopic(round-1))) ||
			hasGroup(t, d, "city_rollup", rel.String(freshCity(round-1))) ||
			hasGroup(t, d, "Q*2", rel.Int(int64(author-1)))) {
			t.Fatalf("round %d: a group that lost its last tuple survived", round)
		}
	}
}
