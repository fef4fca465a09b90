package ivm_test

import (
	"testing"

	"idivm/internal/bsma"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// Two key-moving diffs of different base tables hit one input tuple of a γ
// with a composite key: Q11 groups by (microblog.uid, retweets.uid,
// user.tweetsnum, user.favornum), and one round both re-authors a
// retweeted tweet and updates its retweeter's counters. Neither diff's own
// post image names the tuple's new group — each carries the other's
// attributes from the pre-state — so the affected keys must also be read
// from the input's post-state (testdata/mixed_round_seeds.txt, seed 1).
// ID mode only: in tuple mode the widening join rule already hands the γ
// wrong pre-images here (seed 3, an open gap in ROADMAP item 4).
func TestTwoMovesOnOneTuple(t *testing.T) {
	for _, mode := range []ivm.Mode{ivm.ModeID} {
		ds := bsma.Build(bsma.Defaults(60))
		sys := ivm.NewSystem(ds.DB)
		plan, err := ds.Plan("Q11")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RegisterView("Q11", plan, mode); err != nil {
			t.Fatal(err)
		}
		rt, _ := ds.DB.Table("retweets")
		row, ok := rt.Get(rel.StatePost, []rel.Value{rel.Int(0)})
		if !ok {
			t.Fatal("retweet 0 missing")
		}
		mid, retweeter := row[1], row[2]
		if _, err := ds.DB.Update("microblog", []rel.Value{mid}, []string{"uid"}, []rel.Value{rel.Int(59)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.DB.Update("user", []rel.Value{retweeter}, []string{"tweetsnum"}, []rel.Value{rel.Int(123456)}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.MaintainAll(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := sys.CheckConsistent("Q11"); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}
