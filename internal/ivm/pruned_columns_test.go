package ivm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"idivm/internal/bsma"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// TestPrunedColumnsDifferential updates the columns that a γ's input cache no
// longer holds — the eight BSMA views in ID mode, SelfCheck on, every view
// checked against recomputation after every round. user.city is in Q*1's
// join predicate but not in cache:Q*1:1; retweets.mid and mentions.mid are
// join columns that cache:Q11:1 and cache:Q18:1 drop; microblog.ts,
// microblog.topic and retweets.ts feed selections and no γ. They are mixed
// with tweetsnum/favornum updates, which every cache keeps, on other rows.
//
// A row is updated once per round, under one attribute set: a row updated
// under two update i-diff schemas in one round, one of them a join
// attribute, is ROADMAP item 2's open gap (user.city then user.tweetsnum
// on one user breaks Q*1), not what this test covers.
func TestPrunedColumnsDifferential(t *testing.T) {
	p := bsma.Defaults(40)
	p.TweetsPerUser, p.Cities, p.Topics = 4, 5, 6
	ds := bsma.Build(p)
	sys := ivm.NewSystem(ds.DB)
	sys.SelfCheck = true
	for _, q := range bsma.QueryNames() {
		plan, err := ds.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RegisterView(q, plan, ivm.ModeID); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rows := func(table string) int {
		tab, err := ds.DB.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Len()
	}
	rng := rand.New(rand.NewSource(37))
	num := func(n int) rel.Value { return rel.Int(int64(n)) }
	tweets := rows("microblog")
	// Each entry updates its count of distinct rows of table, one attribute
	// set per row.
	type upd struct {
		table string
		n     int
		cols  []string
		vals  func() []rel.Value
	}
	plan := []upd{
		{"user", 3, []string{"city"}, func() []rel.Value { return []rel.Value{rel.String(fmt.Sprintf("city%d", rng.Intn(p.Cities)))} }},
		{"user", 4, []string{"tweetsnum", "favornum"}, func() []rel.Value { return []rel.Value{num(rng.Intn(1000)), num(rng.Intn(500))} }},
		{"user", 2, []string{"tweetsnum"}, func() []rel.Value { return []rel.Value{num(rng.Intn(1000))} }},
		{"microblog", 3, []string{"ts"}, func() []rel.Value { return []rel.Value{num(rng.Intn(p.TimeRange))} }},
		{"microblog", 3, []string{"topic"}, func() []rel.Value { return []rel.Value{rel.String(fmt.Sprintf("topic%d", rng.Intn(p.Topics)))} }},
		{"retweets", 2, []string{"mid"}, func() []rel.Value { return []rel.Value{num(rng.Intn(tweets))} }},
		{"retweets", 2, []string{"ts"}, func() []rel.Value { return []rel.Value{num(rng.Intn(p.TimeRange))} }},
		{"mentions", 3, []string{"mid"}, func() []rel.Value { return []rel.Value{num(rng.Intn(tweets))} }},
	}
	for round := 0; round < 70; round++ {
		order := map[string][]int{}
		for _, table := range []string{"user", "microblog", "retweets", "mentions"} {
			order[table] = rng.Perm(rows(table))
		}
		for _, u := range plan {
			for i := 0; i < u.n; i++ {
				key := order[u.table][0]
				order[u.table] = order[u.table][1:]
				if _, err := ds.DB.Update(u.table, []rel.Value{num(key)}, u.cols, u.vals()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := sys.MaintainAll(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, q := range bsma.QueryNames() {
			if err := sys.CheckConsistent(q); err != nil {
				t.Fatalf("round %d: %s: %v", round, q, err)
			}
		}
	}
}
