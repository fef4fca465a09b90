package harness

// End-to-end engine differential: the Fig. 12 views (SPJ view V of
// Figure 1b and aggregate view V' of Figure 5b) registered on the
// hash-partitioned test engine must evolve through mixed
// insert/update/delete rounds to exactly the view state — and exactly
// the access counts — of the in-memory engine.

import (
	"testing"

	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
	"idivm/internal/workload"
)

type engineRun struct {
	ds  *workload.Dataset
	sys *ivm.System
}

// buildRun builds the dataset and, when e is not nil, moves it onto e.
func buildRun(t *testing.T, e storage.Engine, agg bool, mode ivm.Mode) *engineRun {
	t.Helper()
	p := workload.Defaults(600)
	p.DiffSize = 40
	ds := workload.Build(p)
	if e != nil {
		ds.DB = storagetest.Copy(ds.DB, e)
	}
	sys := ivm.NewSystem(ds.DB)
	plan := ds.SPJPlan()
	if agg {
		plan = ds.AggPlan()
	}
	if _, err := sys.RegisterView("V", plan, mode); err != nil {
		t.Fatal(err)
	}
	return &engineRun{ds: ds, sys: sys}
}

// round applies one mixed modification round (price updates, category
// flips, part churn — all three diff kinds) and maintains. Both datasets
// share seed and parameters, so their private RNGs generate identical
// modification streams.
func (r *engineRun) round(t *testing.T) rel.CostCounter {
	t.Helper()
	if err := r.ds.ApplyPriceUpdates(); err != nil {
		t.Fatal(err)
	}
	if err := r.ds.ApplyCategoryFlips(10); err != nil {
		t.Fatal(err)
	}
	if err := r.ds.ApplyPartChurn(8, 8); err != nil {
		t.Fatal(err)
	}
	r.ds.DB.Counter().Reset()
	if _, err := r.sys.MaintainAll(); err != nil {
		t.Fatal(err)
	}
	return *r.ds.DB.Counter()
}

func TestShardedEngineFig12Differential(t *testing.T) {
	for _, tc := range []struct {
		name string
		agg  bool
		mode ivm.Mode
	}{
		{"spj-id", false, ivm.ModeID},
		{"agg-id", true, ivm.ModeID},
		{"spj-tuple", false, ivm.ModeTuple},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := buildRun(t, nil, tc.agg, tc.mode)
			shard := buildRun(t, storagetest.Sharded(4), tc.agg, tc.mode)
			for round := 0; round < 4; round++ {
				memCost := mem.round(t)
				shardCost := shard.round(t)
				if memCost != shardCost {
					t.Fatalf("round %d: access counts diverge: mem %v, sharded %v",
						round, memCost, shardCost)
				}
				memV, err := mem.ds.DB.Table("V")
				if err != nil {
					t.Fatal(err)
				}
				shardV, err := shard.ds.DB.Table("V")
				if err != nil {
					t.Fatal(err)
				}
				mr := memV.Relation(rel.StatePost)
				sr := shardV.Relation(rel.StatePost)
				if !mr.EqualSet(sr) {
					t.Fatalf("round %d: view state diverges:\nmem (%d rows)\nsharded (%d rows)",
						round, mr.Len(), sr.Len())
				}
				if err := shard.sys.CheckConsistent("V"); err != nil {
					t.Fatalf("round %d: sharded view inconsistent: %v", round, err)
				}
			}
		})
	}
}
