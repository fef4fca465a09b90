package ivm_test

import (
	"math/rand"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// readsPreState reports whether plan reads some table in its pre-state: a
// stored view or cache, or a base table scanned in its pre-state.
func readsPreState(plan algebra.Node) bool {
	pre := false
	algebra.Walk(plan, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.RelRef:
			pre = pre || x.Stored && x.St == rel.StatePre
		case *algebra.Scan:
			pre = pre || x.St == rel.StatePre
		}
	})
	return pre
}

// readsStep reports whether plan reads the step result name directly.
func readsStep(plan algebra.Node, name string) bool {
	found := false
	algebra.Walk(plan, func(n algebra.Node) {
		if r, ok := n.(*algebra.RelRef); ok && !r.Stored && r.Name == name {
			found = true
		}
	})
	return found
}

// outputProbes maps each ΔR and ΔG of the script to the number of compute
// steps that read it directly together with some pre-state, plus those that
// so read a ΔK it derives from. The only pre-state a reader of a γ's group
// delta reads is that γ's Output (the view, a γ cache or, for an interior γ in
// tuple mode, the γ recomputed over the pre-state): Table 7 probes it with
// ΔR, whose groups are recomputed from the input's post-state, the
// incremental rule with ΔG, and the guarded MIN/MAX rule with ΔK, before it
// knows which groups ΔR recomputes.
func outputProbes(s *ivm.Script) map[string]int {
	transient := map[string]algebra.Node{}
	for _, st := range s.Steps {
		if cs, ok := st.(*ivm.ComputeStep); ok && cs.Diff == nil {
			transient[cs.Name] = cs.Plan
		}
	}
	probes := map[string]int{}
	for name, plan := range transient {
		if !strings.HasPrefix(name, "ΔR") && !strings.HasPrefix(name, "ΔG") {
			continue
		}
		probes[name] = 0
		for _, src := range append([]string{name}, keySteps(transient, plan)...) {
			for _, rd := range s.Steps {
				if r, ok := rd.(*ivm.ComputeStep); ok && readsStep(r.Plan, src) && readsPreState(r.Plan) {
					probes[name]++
				}
			}
		}
	}
	return probes
}

// keySteps returns the ΔK steps plan reads, directly or through other
// transient steps.
func keySteps(transient map[string]algebra.Node, plan algebra.Node) []string {
	var out []string
	seen := map[string]bool{}
	var visit func(algebra.Node)
	visit = func(n algebra.Node) {
		algebra.Walk(n, func(n algebra.Node) {
			r, ok := n.(*algebra.RelRef)
			if !ok || r.Stored || seen[r.Name] || transient[r.Name] == nil {
				return
			}
			seen[r.Name] = true
			if strings.HasPrefix(r.Name, "ΔK") {
				out = append(out, r.Name)
			}
			visit(transient[r.Name])
		})
	}
	visit(plan)
	return out
}

// scriptCase is one generated Δ-script of repositoryScripts.
type scriptCase struct {
	label  string
	script *ivm.Script
}

// repositoryScripts registers, in both modes, the Figure 7 Vagg view, the
// eight BSMA views, the three city views, the plans of BenchmarkAggClasses
// and the MIN/MAX items view, and returns their Δ-scripts.
func repositoryScripts(t *testing.T) []scriptCase {
	var out []scriptCase
	for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
		add := func(label string, v *ivm.View) { out = append(out, scriptCase{label + "/" + mode.String(), v.Script}) }
		d := fig2DB(t)
		add("Vagg", register(t, ivm.NewSystem(d), "Vagg", aggPlan(t, d), mode))

		ds := bsma.Build(bsma.Defaults(40))
		sys := ivm.NewSystem(ds.DB)
		for _, name := range bsma.ViewNames() {
			add(name, register(t, sys, name, bsmaPlan(t, ds, name), mode))
		}
		for _, class := range []string{"avg", "sum+avg", "minmax", "minmax-over-join"} {
			ds := bsma.Build(bsma.Defaults(40))
			add(class, register(t, ivm.NewSystem(ds.DB), "V", aggClassPlan(t, ds, class), mode))
		}
		items := minMaxItemsDB(t, storage.NewMem())
		add("items", register(t, ivm.NewSystem(items), "V", minMaxItemsPlan(items), mode))
	}
	return out
}

// TestOutputProbedOncePerDelta pins the cost shape of the γ rules: each
// group delta — ΔR of the recompute rule (Table 7) or of the guarded MIN/MAX
// rule, ΔG of the incremental rule (Tables 9/11) — is read against its γ's
// Output pre-state by exactly one compute step, ΔM, which in the guarded rule
// reads ΔK instead of ΔR. The updates are a π over ΔM (a σ over ΔR ⋈ ΔM in
// the guarded rule) and the new groups ΔR ▷ ΔM (ΔG ▷ ΔM), which read
// bindings and no Output, and no ΔR reads a pre-state itself. It covers every
// script of repositoryScripts.
func TestOutputProbedOncePerDelta(t *testing.T) {
	for _, c := range repositoryScripts(t) {
		probes := outputProbes(c.script)
		for _, st := range c.script.Steps {
			if cs, ok := st.(*ivm.ComputeStep); ok && strings.HasPrefix(cs.Name, "ΔR") && readsPreState(cs.Plan) {
				t.Errorf("%s: %s reads a pre-state:\n%s", c.label, cs.Name, c.script)
			}
		}
		hasGamma := false
		algebra.Walk(c.script.ViewPlan, func(n algebra.Node) { _, g := n.(*algebra.GroupBy); hasGamma = hasGamma || g })
		if hasGamma == (len(probes) == 0) {
			t.Errorf("%s: %d ΔR and ΔG steps in the script of a plan with γ = %v:\n%s", c.label, len(probes), hasGamma, c.script)
		}
		for name, n := range probes {
			if n != 1 {
				t.Errorf("%s: %s is read against Output by %d compute steps, want 1:\n%s", c.label, name, n, c.script)
			}
		}
	}
}

// classifyDB holds item(iid, gid, val) and grp(gid, w), with groups
// 0..classifyGroups-1 in grp and items in the first half of them.
const classifyGroups = 12

func classifyDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	item := d.MustCreateTable("item", rel.NewSchema([]string{"iid", "gid", "val"}, []string{"iid"}))
	grp := d.MustCreateTable("grp", rel.NewSchema([]string{"gid", "w"}, []string{"gid"}))
	for g := 0; g < classifyGroups; g++ {
		grp.MustInsert(rel.Int(int64(g)), rel.Int(int64(g)))
	}
	for i := 0; i < 3*classifyGroups/2; i++ {
		item.MustInsert(rel.Int(int64(i)), rel.Int(int64(i%(classifyGroups/2))), rel.Int(int64(i)))
	}
	return d
}

// classifyPlan builds item ⋈ grp grouped three ways, one per dispatch row of
// groupRules: "incr" groups on grp.gid, which no update changes (the
// incremental rule in both modes; an item.gid update reaches it as a
// delete and an insert); "moving" groups on item.gid, which updates move
// (their −old/+new rows fold into ΔG in ID mode, Table 7 in tuple mode);
// "max" adds a MAX (Table 7 in both modes); "minmax" has a MIN and a MAX
// only (the guarded recompute over the #mult cache in ID mode, Table 7 in
// tuple mode).
func classifyPlan(d *db.Database, view string) algebra.Node {
	item, _ := d.Table("item")
	grp, _ := d.Table("grp")
	j := algebra.NewJoin(algebra.NewScan("item", "", item.Schema()), algebra.NewScan("grp", "", grp.Schema()),
		expr.Eq(expr.C("item.gid"), expr.C("grp.gid")))
	sum := algebra.Agg{Fn: algebra.AggSum, Arg: expr.C("item.val"), As: "s"}
	switch view {
	case "incr":
		return algebra.NewGroupBy(j, []string{"grp.gid"}, []algebra.Agg{sum, {Fn: algebra.AggCount, As: "n"}})
	case "moving":
		return algebra.NewGroupBy(j, []string{"item.gid"}, []algebra.Agg{sum, {Fn: algebra.AggCount, As: "n"}})
	case "minmax":
		return algebra.NewGroupBy(j, []string{"item.gid"}, []algebra.Agg{
			{Fn: algebra.AggMin, Arg: expr.C("item.val"), As: "lo"}, {Fn: algebra.AggMax, Arg: expr.C("item.val"), As: "hi"}})
	}
	return algebra.NewGroupBy(j, []string{"item.gid"}, []algebra.Agg{sum, {Fn: algebra.AggMax, Arg: expr.C("item.val"), As: "hi"}})
}

// classifyRound writes one round in which a γ over classifyPlan sees, at
// once, a group that changes (a value update and an insert into a populated
// group), a group that is created (an insert into an empty one), a group
// that dies (its items deleted or moved away) and a group a key-moving
// update moves an item into — empty on even rounds, populated on odd ones.
// It returns the created group and the dying one.
func classifyRound(t *testing.T, d *db.Database, rng *rand.Rand, round int, nextItem *int) (created, dies int64) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	item, _ := d.Table("item")
	members := map[int64][]int64{}
	for _, row := range item.Relation(rel.StatePost).Sorted().Tuples {
		members[row[1].AsInt()] = append(members[row[1].AsInt()], row[0].AsInt())
	}
	var empty, full []int64
	for g := int64(0); g < classifyGroups; g++ {
		if len(members[g]) == 0 {
			empty = append(empty, g)
		} else {
			full = append(full, g)
		}
	}
	if len(empty) < 2 || len(full) < 4 {
		t.Fatalf("round %d: %d empty and %d populated groups, need 2 and 4", round, len(empty), len(full))
	}
	rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
	changes, dying, into := full[0], full[1], full[2]
	created = empty[0]
	gone := []int64{dying}
	if round%2 == 0 {
		// A move into an empty group: another group dies to keep the
		// number of populated groups steady.
		into = empty[1]
		gone = append(gone, full[3])
	}
	ints := func(vs ...int64) []rel.Value {
		out := make([]rel.Value, len(vs))
		for i, v := range vs {
			out[i] = rel.Int(v)
		}
		return out
	}
	insert := func(g int64) {
		must(d.Insert("item", rel.Tuple(ints(int64(*nextItem), g, rng.Int63n(100)))))
		*nextItem++
	}
	upd := func(iid int64, attr string, v int64) {
		_, err := d.Update("item", ints(iid), []string{attr}, ints(v))
		must(err)
	}

	upd(members[changes][0], "val", rng.Int63n(100)+100)
	insert(changes)
	insert(created)
	// The dying group loses every item: the first one moves into `into`
	// (a key-moving update), the rest are deleted.
	upd(members[dying][0], "gid", into)
	for _, g := range gone {
		for _, iid := range members[g] {
			if iid != members[dying][0] {
				_, err := d.Delete("item", ints(iid))
				must(err)
			}
		}
	}
	return created, dying
}

// TestGroupClassificationExact is the differential on how the γ rules split
// a round's groups into ∆u, ∆+ and ∆-: one round at a time, a γ sees a
// group change, one created, one die and one receive a moved item, for each
// dispatch row of groupRules in both modes. After every round the view
// equals its recomputation, the created group is in it, the dead one is
// not, and no group key is in both an applied ∆u and an applied ∆+ — the
// new groups, derived from what the Output probe ΔM did not match, never
// overlap the updated ones.
func TestGroupClassificationExact(t *testing.T) {
	rows := map[string]string{"incr/id-based": "incremental", "incr/tuple-based": "incremental",
		"moving/id-based": "incremental", "moving/tuple-based": "Table 7",
		"max/id-based": "Table 7", "max/tuple-based": "Table 7",
		"minmax/id-based": "guarded", "minmax/tuple-based": "Table 7"}
	for _, view := range []string{"incr", "moving", "max", "minmax"} {
		for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
			label := view + "/" + mode.String()
			d := classifyDB(t)
			sys := ivm.NewSystem(d)
			v := register(t, sys, "V", classifyPlan(d, view), mode)
			script := v.Script.String()
			row := map[[2]bool]string{{false, true}: "incremental", {true, true}: "mixed", {true, false}: "Table 7"}[[2]bool{
				strings.Contains(script, "ΔK"), strings.Contains(script, "ΔG")}]
			if strings.Contains(script, "ΔX") {
				row = "guarded"
			}
			if row != rows[label] {
				t.Fatalf("%s: dispatch row %q, want %q:\n%s", label, row, rows[label], script)
			}
			rng, next := rand.New(rand.NewSource(7)), 1000
			for round := 0; round < 12; round++ {
				created, dies := classifyRound(t, d, rng, round, &next)
				reps, err := sys.MaintainAll()
				if err != nil {
					t.Fatalf("%s round %d: %v", label, round, err)
				}
				if err := sys.CheckConsistent("V"); err != nil {
					t.Fatalf("%s round %d: %v", label, round, err)
				}
				if !hasGroup(t, d, "V", rel.Int(created)) || hasGroup(t, d, "V", rel.Int(dies)) {
					t.Fatalf("%s round %d: group %d not created or group %d not gone", label, round, created, dies)
				}
				updated := map[string]bool{}
				var inserted []string
				for _, inst := range reps[0].Phases.Applied {
					for _, row := range inst.Tuples() {
						k := rel.TupleKey(row[:len(inst.Schema.IDs)])
						switch inst.Schema.Type {
						case ivm.DiffUpdate:
							updated[k] = true
						case ivm.DiffInsert:
							inserted = append(inserted, k)
						}
					}
				}
				if len(updated) == 0 || len(inserted) == 0 {
					t.Fatalf("%s round %d: %d updated and %d inserted groups, want some of each", label, round, len(updated), len(inserted))
				}
				for _, k := range inserted {
					if updated[k] {
						t.Fatalf("%s round %d: group %q is in both ∆u and ∆+", label, round, k)
					}
				}
			}
		}
	}
}
