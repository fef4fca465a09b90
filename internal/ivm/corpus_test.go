package ivm_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/workload"
)

// corpusPlan is one plan of the script corpus and the database whose
// catalog its scans resolve against.
type corpusPlan struct {
	name string
	d    *db.Database
	plan algebra.Node
}

// scriptCorpus builds the corpus's plans: the bsma_views views, the running
// example's SPJ and γ views, σ over a MIN γ (the plan that reaches the σ
// rule's Input-consulting update variant), a ⋉ and a ▷ whose condition an
// update changes, a π mixing a join's sides, a ∪all, the feed view, the
// item rollup cascade and the random plans of planGen, with and without
// aggMix.
func scriptCorpus(t *testing.T) []corpusPlan {
	var out []corpusPlan
	ds := bsma.Build(bsma.Defaults(40))
	sys := ivm.NewSystem(ds.DB)
	for _, name := range bsma.ViewNames() {
		plan := bsmaPlan(t, ds, name)
		out = append(out, corpusPlan{"bsma/" + name, ds.DB, plan})
		if name == "city_rollup" { // city_hist scans it
			register(t, sys, name, plan, ivm.ModeID)
		}
	}

	d := fig2DB(t)
	out = append(out, corpusPlan{"example/spj", d, spjPlan(t, d)}, corpusPlan{"example/agg", d, aggPlan(t, d)})
	minAgg := algebra.NewGroupBy(spjPlan(t, d), []string{"devices_parts.did"},
		[]algebra.Agg{{Fn: algebra.AggMin, Arg: expr.C("price"), As: "cheapest"}})
	out = append(out, corpusPlan{"example/select-over-min", d,
		algebra.NewSelect(minAgg, expr.Gt(expr.C("cheapest"), expr.IntLit(12)))})

	// Parts sharing their price with another part (⋉) or with none (▷): a
	// price update changes membership through either side. And a π over a
	// self-join whose computed item reads both sides, so a price update on
	// one side cannot compute it alone.
	parts, _ := d.Table("parts")
	p1, p2 := algebra.NewScan("parts", "p1", parts.Schema()), algebra.NewScan("parts", "p2", parts.Schema())
	samePrice := expr.And(expr.Eq(expr.C("p1.price"), expr.C("p2.price")), expr.Ne(expr.C("p1.pid"), expr.C("p2.pid")))
	out = append(out, corpusPlan{"example/same-price", d, algebra.NewSemiJoin(p1, p2, samePrice)},
		corpusPlan{"example/unique-price", d, algebra.NewAntiJoin(p1, p2, samePrice)},
		corpusPlan{"example/price-pair", d, algebra.NewProject(algebra.NewJoin(p1, p2, expr.Eq(expr.C("p1.pid"), expr.C("p2.pid"))),
			[]algebra.ProjItem{{E: expr.C("p1.pid"), As: "pid1"}, {E: expr.C("p2.pid"), As: "pid2"},
				{E: expr.AddE(expr.C("p1.price"), expr.C("p2.price")), As: "total"}})})

	// ∪all of parts and a second parts-like table, as TestUnionAllView.
	ud := fig2DB(t)
	legacy := ud.MustCreateTable("legacy_parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
	renamed, err := algebra.EnsureIDs(algebra.NewProject(algebra.NewScan("legacy_parts", "", legacy.Schema()), []algebra.ProjItem{
		{E: expr.C("legacy_parts.pid"), As: "parts.pid"}, {E: expr.C("legacy_parts.price"), As: "parts.price"}}))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, corpusPlan{"example/union", ud, algebra.NewUnionAll("b",
		algebra.Keep(algebra.NewScan("parts", "", parts.Schema()), "parts.pid", "parts.price"),
		algebra.Keep(renamed, "parts.pid", "parts.price"))})

	feed := workload.BuildSkew(workload.SkewDefaults(20))
	out = append(out, corpusPlan{"feed", feed.DB, feed.FeedPlan()})

	cd := cascadeDB(t, storage.NewMem(), 10, 1)
	register(t, ivm.NewSystem(cd), "v1", rollupL1Plan(cd), ivm.ModeID)
	out = append(out, corpusPlan{"cascade/v1", cd, rollupL1Plan(cd)}, corpusPlan{"cascade/v2", cd, rollupL2Plan(cd, "v1")})

	for trial := 0; trial < 120; trial++ {
		d := fig2DB(t)
		plan := (&planGen{rng: rand.New(rand.NewSource(int64(1000 + trial))), d: d}).gen()
		out = append(out, corpusPlan{fmt.Sprintf("random/%d", 1000+trial), d, plan})
	}
	for trial := 0; trial < 40; trial++ {
		d := fig2DB(t)
		plan := (&planGen{rng: rand.New(rand.NewSource(int64(7000 + trial))), d: d, aggMix: true}).gen()
		out = append(out, corpusPlan{fmt.Sprintf("aggmix/%d", 7000+trial), d, plan})
	}
	return out
}

// normalForm checks what pass 4 leaves in every compute step of a minimized
// script, so that the plan a script prints is the plan that runs: no π
// directly over a π, no π over a ∪all whose branch attribute it does not
// read, and no untagged ∪all directly under an untagged ∪all.
func normalForm(s *ivm.Script) error {
	var err error
	for _, st := range s.Steps {
		cs, ok := st.(*ivm.ComputeStep)
		if !ok {
			continue
		}
		algebra.Walk(cs.Plan, func(n algebra.Node) {
			if err != nil {
				return
			}
			switch x := n.(type) {
			case *algebra.Project:
				switch c := x.Child.(type) {
				case *algebra.Project:
					err = fmt.Errorf("%s: π over π in %s", cs.Name, x)
				case *algebra.UnionAll:
					if !readsAttr(x.Items, c.BranchAttr) {
						err = fmt.Errorf("%s: π over a ∪all whose branch attribute it does not read in %s", cs.Name, x)
					}
				}
			case *algebra.UnionAll:
				for _, b := range x.Branches {
					if u, ok := b.(*algebra.UnionAll); ok && x.BranchAttr == "" && u.BranchAttr == "" {
						err = fmt.Errorf("%s: untagged ∪all under an untagged ∪all in %s", cs.Name, x)
					}
				}
			}
		})
	}
	return err
}

// readsAttr reports whether an item reads the attribute a.
func readsAttr(items []algebra.ProjItem, a string) bool {
	for _, it := range items {
		if slices.Contains(it.E.Cols(), a) {
			return true
		}
	}
	return false
}

// The Δ-scripts generated for a corpus of plans, each in both modes under
// GenOptions{}, NoMinimize and NoCache, must verify, the minimized ones
// must be in pass 4's normal form (normalForm), and all are pinned by the
// SHA-256 of their text, one line per (plan, mode, options): a rewrite of
// the rules that is meant to change no plan must leave every line as it
// is. A mismatch prints the plan and the script it now generates.
// Regenerate deliberately with:
// go test -run TestScriptCorpusGolden -update-golden ./internal/ivm/
func TestScriptCorpusGolden(t *testing.T) {
	opts := []struct {
		name string
		o    ivm.GenOptions
	}{{"default", ivm.GenOptions{}}, {"nomin", ivm.GenOptions{NoMinimize: true}}, {"nocache", ivm.GenOptions{NoCache: true}}}
	var lines []string
	size := 0
	type entry struct {
		plan   algebra.Node
		script string
	}
	got := map[string]entry{}
	for _, c := range scriptCorpus(t) {
		schemaOf := func(tb string) (rel.Schema, error) {
			tab, err := c.d.Table(tb)
			if err != nil {
				return rel.Schema{}, err
			}
			return tab.Schema(), nil
		}
		base, err := ivm.GenerateBaseDiffSchemas(c.plan, schemaOf)
		if err != nil {
			t.Fatalf("%s: schemas: %v\nplan: %s", c.name, err, c.plan)
		}
		for _, mode := range []ivm.Mode{ivm.ModeID, ivm.ModeTuple} {
			for _, o := range opts {
				key := fmt.Sprintf("%s %s %s", c.name, mode, o.name)
				s, err := ivm.Generate("V", c.plan, base, mode == ivm.ModeTuple, o.o)
				if err == nil {
					err = ivm.Verify(s)
				}
				if err == nil && s.Minimized {
					err = normalForm(s)
				}
				if err != nil {
					t.Fatalf("%s: %v\nplan: %s", key, err, c.plan)
				}
				text := s.String()
				got[key] = entry{c.plan, text}
				size += len(text)
				lines = append(lines, fmt.Sprintf("%s %x", key, sha256.Sum256([]byte(text))))
			}
		}
	}

	t.Logf("%d scripts, %d bytes of script text", len(lines), size)
	path := filepath.Join("testdata", "script_corpus.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	defer f.Close()
	want := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		want[line] = true
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if _, ok := got[line[:i]]; !ok {
				t.Errorf("%s: no longer generated", line[:i])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if !want[line] {
			key := line[:strings.LastIndexByte(line, ' ')]
			e := got[key]
			t.Errorf("%s: Δ-script changed; inspect and refresh with -update-golden\nplan: %s\nscript:\n%s", key, e.plan, e.script)
		}
	}
}
