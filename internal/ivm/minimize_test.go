package ivm

import (
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

var minParts = rel.NewSchema([]string{"pid", "price"}, []string{"pid"})

func minDiffs() map[string]DiffSchema {
	return map[string]DiffSchema{
		"dplus":  {Type: DiffInsert, Rel: "parts", IDs: []string{"pid"}, Post: []string{"price"}},
		"dminus": {Type: DiffDelete, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price"}},
	}
}

func insRef() *algebra.RelRef {
	ds := DiffSchema{Type: DiffInsert, Rel: "parts", IDs: []string{"pid"}, Post: []string{"price"}}
	return algebra.NewRelRef("dplus", ds.RelSchema())
}

func delRef() *algebra.RelRef {
	ds := DiffSchema{Type: DiffDelete, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price"}}
	return algebra.NewRelRef("dminus", ds.RelSchema())
}

func postScan() algebra.Node {
	return algebra.NewScan("parts", "parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
}

// When φ references the scan's qualified names — which the diff cannot
// evaluate — the conservative minimizer must leave the semijoin in place.
func TestMinimizeQualifiedPhiUntouched(t *testing.T) {
	plan := algebra.NewSemiJoin(insRef(),
		algebra.NewSelect(postScan(), expr.Gt(expr.C("parts.price"), expr.IntLit(5))),
		expr.Eq(expr.C("pid"), expr.C("parts.pid")))
	got := MinimizePlan(plan, minDiffs())
	if _, stillSemi := got.(*algebra.SemiJoin); !stillSemi {
		t.Fatalf("conservative case must not rewrite: %s", got)
	}
}

// Figure 8 with bare names: the rewrite fires and eliminates the base
// table access entirely.
func TestMinimizeInsertSemijoinBareNames(t *testing.T) {
	stored := algebra.NewStoredRef("parts", minParts, rel.StatePost)
	phi := expr.Gt(expr.C("price"), expr.IntLit(5))
	plan := algebra.NewSemiJoin(insRef(), algebra.NewSelect(stored, phi),
		expr.Eq(expr.C("pid"), expr.C("pid")))
	got := MinimizePlan(plan, minDiffs())
	if algebra.TouchesStored(got) {
		t.Fatalf("C1 rewrite should remove the stored access: %s", got)
	}
	if !strings.Contains(got.String(), "price#post") {
		t.Fatalf("rewritten filter should test price#post: %s", got)
	}
}

// Figure 8: ∆+R ▷ σφ(R_post) → σ¬φ(post) ∆+R.
func TestMinimizeInsertAntijoinBareNames(t *testing.T) {
	stored := algebra.NewStoredRef("parts", minParts, rel.StatePost)
	phi := expr.Gt(expr.C("price"), expr.IntLit(5))
	plan := algebra.NewAntiJoin(insRef(), algebra.NewSelect(stored, phi),
		expr.Eq(expr.C("pid"), expr.C("pid")))
	got := MinimizePlan(plan, minDiffs())
	if algebra.TouchesStored(got) {
		t.Fatalf("C1 antijoin rewrite should remove the stored access: %s", got)
	}
	if !strings.Contains(got.String(), "NOT") {
		t.Fatalf("antijoin rewrite must negate the filter: %s", got)
	}
}

// Figure 8: ∆-R ⋉ σφ(R_post) → ∅ and ∆-R ▷ σφ(R_post) → ∆-R (C2).
func TestMinimizeDeleteVsOwnPost(t *testing.T) {
	stored := algebra.NewStoredRef("parts", minParts, rel.StatePost)
	eq := expr.Eq(expr.C("pid"), expr.C("pid"))

	semi := MinimizePlan(algebra.NewSemiJoin(delRef(), stored, eq), minDiffs())
	if _, ok := semi.(*algebra.Empty); !ok {
		t.Fatalf("∆- ⋉ R_post must minimize to ∅, got %s", semi)
	}
	anti := MinimizePlan(algebra.NewAntiJoin(delRef(), stored, eq), minDiffs())
	if ref, ok := anti.(*algebra.RelRef); !ok || ref.Name != "dminus" {
		t.Fatalf("∆- ▷ R_post must minimize to the diff itself, got %s", anti)
	}
	join := MinimizePlan(algebra.NewJoin(delRef(), algebra.NewScan("parts", "p2", minParts),
		expr.Eq(expr.C("pid"), expr.C("p2.pid"))), minDiffs())
	if _, ok := join.(*algebra.Empty); !ok {
		t.Fatalf("∆- ⋈ R_post must minimize to ∅, got %s", join)
	}
}

// Figure 8 (join block): ∆+R ⋈Ī R_post reduces to a projection over the
// diff — constraint C1 guarantees every joined-in column is in the diff.
func TestMinimizeInsertJoinOwnPost(t *testing.T) {
	scan := algebra.NewScan("parts", "p", minParts)
	plan := algebra.NewJoin(insRef(), scan, expr.Eq(expr.C("pid"), expr.C("p.pid")))
	got := MinimizePlan(plan, minDiffs())
	if algebra.TouchesStored(got) {
		t.Fatalf("join with own post-state must vanish: %s", got)
	}
	s := got.Schema()
	// Output keeps the join's columns: the diff's plus the scan's.
	for _, a := range []string{"pid", "price#post", "p.pid", "p.price"} {
		if !s.Has(a) {
			t.Fatalf("rewritten join lost column %q: %v", a, s.Attrs)
		}
	}
	// With a selection on the scanned side, the filter survives on the
	// diff's post columns.
	phi := expr.Gt(expr.C("p.price"), expr.IntLit(5))
	plan2 := algebra.NewJoin(insRef(), algebra.NewSelect(scan, phi),
		expr.Eq(expr.C("pid"), expr.C("p.pid")))
	got2 := MinimizePlan(plan2, minDiffs())
	if algebra.TouchesStored(got2) {
		t.Fatalf("filtered join must also vanish: %s", got2)
	}
	if !strings.Contains(got2.String(), "price#post > 5") {
		t.Fatalf("filter not retargeted: %s", got2)
	}
	// Diff on the right keeps join column order.
	plan3 := algebra.NewJoin(scan, insRef(), expr.Eq(expr.C("p.pid"), expr.C("pid")))
	got3 := MinimizePlan(plan3, minDiffs())
	if algebra.TouchesStored(got3) {
		t.Fatalf("right-diff join must vanish: %s", got3)
	}
	if got3.Schema().Attrs[0] != "p.pid" {
		t.Fatalf("column order broken: %v", got3.Schema().Attrs)
	}
}

// Pre-state references are NOT covered by C1/C2: no rewrite may fire.
func TestMinimizePreStateUntouched(t *testing.T) {
	stored := algebra.NewStoredRef("parts", minParts, rel.StatePre)
	eq := expr.Eq(expr.C("pid"), expr.C("pid"))
	semi := MinimizePlan(algebra.NewSemiJoin(delRef(), stored, eq), minDiffs())
	if _, ok := semi.(*algebra.Empty); ok {
		t.Fatal("C2 must not fire against the pre-state")
	}
}

func TestMinimizeStructuralCleanups(t *testing.T) {
	ref := insRef()
	// TRUE selection removal.
	got := MinimizePlan(algebra.NewSelect(ref, expr.True()), minDiffs())
	if _, ok := got.(*algebra.RelRef); !ok {
		t.Fatalf("TRUE select must vanish: %s", got)
	}
	// Select cascade merge.
	p1 := expr.Gt(expr.C("price#post"), expr.IntLit(1))
	p2 := expr.Lt(expr.C("price#post"), expr.IntLit(9))
	got = MinimizePlan(algebra.NewSelect(algebra.NewSelect(ref, p1), p2), minDiffs())
	sel, ok := got.(*algebra.Select)
	if !ok {
		t.Fatalf("expected merged select, got %s", got)
	}
	if _, ok := sel.Child.(*algebra.RelRef); !ok {
		t.Fatalf("selects must merge into one: %s", got)
	}
	// Projection merge: π(π(x)) with substitution.
	inner := algebra.NewProject(ref, []algebra.ProjItem{
		{E: expr.C("pid"), As: "pid"},
		{E: expr.AddE(expr.C("price#post"), expr.IntLit(1)), As: "p1"},
	})
	outer := algebra.NewProject(inner, []algebra.ProjItem{
		{E: expr.MulE(expr.C("p1"), expr.IntLit(2)), As: "p2"},
		{E: expr.C("pid"), As: "pid"},
	})
	got = MinimizePlan(outer, minDiffs())
	proj, ok := got.(*algebra.Project)
	if !ok {
		t.Fatalf("expected project, got %T", got)
	}
	if _, ok := proj.Child.(*algebra.RelRef); !ok {
		t.Fatalf("projects must merge: %s", got)
	}
	// Identity projection removal.
	id := algebra.NewProject(ref, []algebra.ProjItem{
		{E: expr.C("pid"), As: "pid"},
		{E: expr.C("price#post"), As: "price#post"},
	})
	got = MinimizePlan(id, minDiffs())
	if _, ok := got.(*algebra.RelRef); !ok {
		t.Fatalf("identity projection must vanish: %s", got)
	}
}

func TestMinimizeEmptyPropagation(t *testing.T) {
	empty := &algebra.Empty{Sch: minParts}
	stored := algebra.NewStoredRef("parts", minParts.WithKey([]string{"pid"}), rel.StatePost)
	// Joining with ∅ is ∅.
	j := &algebra.Join{Left: empty, Right: algebra.NewScan("parts", "p2", minParts),
		Pred: expr.True()}
	got := MinimizePlan(j, minDiffs())
	if _, ok := got.(*algebra.Empty); !ok {
		t.Fatalf("∅ ⋈ R must be ∅, got %s", got)
	}
	// Antijoin against ∅ is the left side.
	a := &algebra.SemiJoin{Left: stored, Right: empty, Pred: expr.Eq(expr.C("pid"), expr.C("pid")), Anti: true}
	got = MinimizePlan(a, minDiffs())
	if _, ok := got.(*algebra.RelRef); !ok {
		t.Fatalf("R ▷ ∅ must be R, got %s", got)
	}
	// Selecting/projecting ∅ stays ∅.
	got = MinimizePlan(algebra.NewSelect(empty, expr.Gt(expr.C("price"), expr.IntLit(0))), minDiffs())
	if _, ok := got.(*algebra.Empty); !ok {
		t.Fatalf("σ(∅) must be ∅, got %s", got)
	}
}

// The minimized script for the running example must shrink or preserve
// every plan (never grow) and stay semantically identical — checked
// indirectly by the end-to-end tests; here we check the running example's
// ID-mode script mentions the cache exactly as Figure 7 does.
func TestScriptShapeRunningExample(t *testing.T) {
	// Built via the exported Generate path in system_test.go; here we only
	// check the pieces unique to the generator's internals.
	base := BaseDiffSchemas{
		"parts": {
			{Type: DiffUpdate, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price"}, Post: []string{"price"}},
		},
	}
	scan := algebra.NewScan("parts", "", minParts)
	plan := algebra.NewGroupBy(scan, []string{"parts.pid"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("parts.price"), As: "total"}})
	s, err := Generate("V", plan, base, false)
	if err != nil {
		t.Fatal(err)
	}
	// γ over a bare scan: the base table itself is the cache (no CacheDef).
	if len(s.Caches) != 0 {
		t.Fatalf("scan-input aggregate should not create a cache: %v", s.Caches)
	}
	var hasApply bool
	for _, st := range s.Steps {
		if a, ok := st.(*ApplyStep); ok && a.Table == "V" {
			hasApply = true
		}
	}
	if !hasApply {
		t.Fatal("script must apply diffs to the view")
	}
	if !strings.Contains(s.String(), "Δ") {
		t.Fatal("script rendering looks wrong")
	}
}
