package ivm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/storage/storagetest"
)

// feedCell is one system of the round-feed differential: the running-example
// tables plus cascadeDB's item table, under random SPJ/aggregate views over
// the former (both modes, so several views bind equal and unequal i-diff
// schemas over one table) and a two-level cascade over the latter
// (v1 → v2 → v3) beside an independent sibling.
type feedCell struct {
	d      *db.Database
	sys    *ivm.System
	views  []string
	tables []string // views and caches
	rng    *rand.Rand
	nextPt int
	nextID int64
}

const feedRows = 120

func newFeedCell(t *testing.T, eng storage.Engine, seed int64, workers int) *feedCell {
	t.Helper()
	d := fig2DBOn(t, eng)
	addItems(d, feedRows, seed)
	c := &feedCell{d: d, sys: ivm.NewSystem(d), rng: rand.New(rand.NewSource(seed + 1)), nextPt: 50, nextID: feedRows}
	c.sys.Workers = workers
	add := func(name string, plan algebra.Node, mode ivm.Mode) {
		v, err := c.sys.RegisterView(name, plan, mode)
		if err != nil {
			t.Fatalf("register %s: %v\nplan: %s", name, err, plan)
		}
		c.views = append(c.views, name)
		c.tables = append(c.tables, name)
		for _, cache := range v.Script.Caches {
			c.tables = append(c.tables, cache.Name)
		}
	}
	gen := &planGen{rng: rand.New(rand.NewSource(seed)), d: d}
	add("v1", rollupL1Plan(d), ivm.ModeID)
	for i := 0; i < 4; i++ {
		add(fmt.Sprintf("r%d", i), gen.gen(), []ivm.Mode{ivm.ModeID, ivm.ModeTuple}[i%2])
	}
	add("v2", rollupL2Plan(d, "v1"), ivm.ModeID)
	add("side", flatRollupPlan(d), ivm.ModeID)
	v2, _ := d.Table("v2")
	add("v3", algebra.NewGroupBy(algebra.NewScan("v2", "", v2.Schema()), []string{"v2.total"},
		[]algebra.Agg{{Fn: algebra.AggCount, As: "regions"}}), ivm.ModeID)
	return c
}

func (c *feedCell) modify(t *testing.T) {
	randomMods(c.d, c.rng, &c.nextPt)
	mutateItems(t, c.d, c.rng, feedRows, &c.nextID)
	c.d.Counter().Reset()
}

// appliedKeys renders a report's Applied instances, rows in order.
func appliedKeys(r *ivm.Report) []string {
	var out []string
	for _, inst := range r.Phases.Applied {
		for _, row := range inst.Rows.Tuples {
			out = append(out, inst.Schema.String()+" "+rel.TupleKey(row))
		}
	}
	return out
}

// checkEpochs is System.CheckEpochs(nil) (export_test.go), the invariant of a
// successful round.
func checkEpochs(s *ivm.System) error {
	_, err := any(s).(interface {
		CheckEpochs(map[string]string) (map[string]string, error)
	}).CheckEpochs(nil)
	return err
}

// viewInstances compacts the base log plus the derived logs of v's sources
// and populates the i-diff instances of v's own base schemas, keyed by
// BaseBindName, with the number of diff tuples in them; the log is not
// consumed. PopulateInstances drops empty instances, so each schema starts
// bound to an empty relation and an instance replaces the one its schema
// equals.
func viewInstances(d *db.Database, v *ivm.View) (map[string]*rel.Relation, int, error) {
	log := append([]db.Modification(nil), d.Log()...)
	for _, src := range v.Sources {
		log = append(log, d.DerivedLog(src)...)
	}
	changes, err := ivm.CompactLog(log, func(name string) (rel.Schema, error) {
		t, err := d.Table(name)
		if err != nil {
			return rel.Schema{}, err
		}
		return t.Schema(), nil
	})
	if err != nil {
		return nil, 0, err
	}
	bindings := make(map[string]*rel.Relation)
	n := 0
	for _, table := range v.Script.Base.Tables() {
		schemas := v.Script.Base[table]
		for i, ds := range schemas {
			bindings[ivm.BaseBindName(table, i)] = rel.NewRelation(ds.RelSchema())
		}
		nc, ok := changes[table]
		if !ok {
			continue
		}
		insts, err := ivm.PopulateInstances(nc, schemas)
		if err != nil {
			return nil, 0, err
		}
		for _, inst := range insts {
			for i, ds := range schemas {
				if ds.Equal(inst.Schema) {
					bindings[ivm.BaseBindName(table, i)] = inst.Rows
					n += inst.Len()
				}
			}
		}
	}
	return bindings, n, nil
}

// maintainView is the per-view reference for one view: its instances
// (viewInstances), then its Δ-script.
func maintainView(d *db.Database, v *ivm.View) (*ivm.Report, error) {
	bindings, n, err := viewInstances(d, v)
	if err != nil {
		return nil, err
	}
	pc, err := ivm.RunScriptOpts(d, v.Script, bindings, ivm.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return &ivm.Report{View: v.Name, Phases: pc, DiffTuples: n}, nil
}

// TestMaintainAllMatchesPerViewMaintain is the differential on the round's
// diff feed: one MaintainAll — the log compacted once, one instance per
// distinct base i-diff schema, shared by all views — against a twin that
// maintains view by view (maintainView compacts the log for each view) and
// resets the log by hand. View and cache state, per-view and per-step access
// counts, diff tuple counts, Applied instances and the database counters
// must agree after every round, at Workers 1, 4 and the default (0:
// GOMAXPROCS), on both engines, and in both systems every view, cache and
// logged base table must be in its epoch with its pre-state advanced to its
// post-state (CheckEpochs). The
// rounds differ from one another, so a feed that outlived its round — last
// round's changes served again — shows up as a state mismatch in the next.
func TestMaintainAllMatchesPerViewMaintain(t *testing.T) {
	engines := map[string]func() storage.Engine{
		"mem":      storage.NewMem,
		"sharded4": func() storage.Engine { return storagetest.Sharded(4) },
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for name, mk := range engines {
		for _, workers := range []int{1, 4, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				for s := 0; s < seeds; s++ {
					seed := int64(9100 + 10*s)
					all, each := newFeedCell(t, mk(), seed, workers), newFeedCell(t, mk(), seed, workers)
					for round := 0; round < 5; round++ {
						ctx := fmt.Sprintf("seed %d round %d", seed, round)
						all.modify(t)
						each.modify(t)
						allReps, err := all.sys.MaintainAll()
						if err != nil {
							t.Fatalf("%s: MaintainAll: %v", ctx, err)
						}
						var eachReps []*ivm.Report
						for _, view := range each.views {
							v, _ := each.sys.View(view)
							r, err := maintainView(each.d, v)
							if err != nil {
								t.Fatalf("%s: maintainView(%s): %v", ctx, view, err)
							}
							eachReps = append(eachReps, r)
						}
						each.d.ResetLog()

						assertReportsMatch(t, ctx, eachReps, allReps)
						for i := range allReps {
							if a, e := fmt.Sprint(appliedKeys(allReps[i])), fmt.Sprint(appliedKeys(eachReps[i])); a != e {
								t.Fatalf("%s: view %s: applied instances differ:\n one feed %s\n per view %s", ctx, allReps[i].View, a, e)
							}
						}
						if a, e := *all.d.Counter(), *each.d.Counter(); a != e {
							t.Fatalf("%s: database counters differ: one feed %v, per view %v", ctx, a, e)
						}
						assertTablesMatch(t, ctx, each.d, all.d, all.tables)
						for _, c := range []*feedCell{all, each} {
							if err := checkEpochs(c.sys); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
						}
						for _, view := range all.views {
							if err := all.sys.CheckConsistent(view); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
						}
					}
				}
			})
		}
	}
}
