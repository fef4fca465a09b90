package ivm

import (
	"errors"
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Test fixtures: a selection view (no caches) and an aggregate-over-select
// view (input cache + ΔG auxiliary binding), generated through the real
// pipeline so mutations start from verified-valid scripts.

func verifyTableSchema(t string) (rel.Schema, error) { return minParts, nil }

func selectScript(t *testing.T, opts ...GenOptions) *Script {
	t.Helper()
	scan := algebra.NewScan("parts", "", minParts)
	plan := algebra.NewSelect(scan, expr.Gt(expr.C("parts.price"), expr.IntLit(5)))
	base, err := GenerateBaseDiffSchemas(plan, verifyTableSchema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate("V", plan, base, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func gammaScript(t *testing.T, opts ...GenOptions) *Script {
	t.Helper()
	scan := algebra.NewScan("parts", "", minParts)
	sel := algebra.NewSelect(scan, expr.Gt(expr.C("parts.price"), expr.IntLit(0)))
	plan := algebra.NewGroupBy(sel, []string{"parts.pid"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("parts.price"), As: "total"}})
	base, err := GenerateBaseDiffSchemas(plan, verifyTableSchema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate("V", plan, base, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantCode(t *testing.T, err error, code VerifyCode) *VerifyError {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %s, script verified clean", code)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("expected *VerifyError, got %T: %v", err, err)
	}
	if ve.Code != code {
		t.Fatalf("expected code %s, got %s: %v", code, ve.Code, ve)
	}
	return ve
}

func TestVerifyAcceptsGeneratedScripts(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Script
	}{
		{"select-min", selectScript(t)},
		{"select-raw", selectScript(t, GenOptions{NoMinimize: true})},
		{"gamma-min", gammaScript(t)},
		{"gamma-raw", gammaScript(t, GenOptions{NoMinimize: true})},
		{"gamma-nocache", gammaScript(t, GenOptions{NoCache: true})},
	} {
		if err := Verify(tc.s); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	// Tuple-mode scripts must verify too.
	scan := algebra.NewScan("parts", "", minParts)
	plan := algebra.NewSelect(scan, expr.Gt(expr.C("parts.price"), expr.IntLit(5)))
	base, err := GenerateBaseDiffSchemas(plan, verifyTableSchema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate("V", plan, base, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s); err != nil {
		t.Errorf("tuple mode: %v", err)
	}
}

// Mutation: dropping the cache definition leaves the script referencing an
// undeclared stored table.
func TestVerifyRejectsDroppedCacheDef(t *testing.T) {
	s := gammaScript(t)
	if len(s.Caches) == 0 {
		t.Fatal("fixture should have an input cache")
	}
	s.Caches = nil
	wantCode(t, Verify(s), VerifyUnknownTable)
}

// Mutation: hoisting an apply step above the compute step that binds its
// diff breaks def-before-use.
func TestVerifyRejectsApplyBeforeCompute(t *testing.T) {
	s := selectScript(t)
	j := -1
	for i, st := range s.Steps {
		if _, ok := st.(*ApplyStep); ok {
			j = i
			break
		}
	}
	if j <= 0 {
		t.Fatal("fixture should have an apply step after computes")
	}
	a := s.Steps[j]
	copy(s.Steps[1:j+1], s.Steps[0:j])
	s.Steps[0] = a
	wantCode(t, Verify(s), VerifyUnboundDiff)
}

// Mutation: tagging an apply step with a compute phase violates the
// phase/kind correspondence.
func TestVerifyRejectsSwappedPhaseKind(t *testing.T) {
	s := selectScript(t)
	for _, st := range s.Steps {
		if a, ok := st.(*ApplyStep); ok {
			a.Ph = PhaseViewCompute
			break
		}
	}
	wantCode(t, Verify(s), VerifyPhaseKind)
}

// Mutation: a computation scheduled after view updates have begun violates
// the pass-3 phase ordering.
func TestVerifyRejectsComputeAfterViewUpdate(t *testing.T) {
	s := selectScript(t)
	var first *ComputeStep
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok {
			first = cs
			break
		}
	}
	late := &ComputeStep{Name: "late", Plan: algebra.NewRelRef(first.Name, first.Plan.Schema()),
		Ph: PhaseViewCompute}
	s.Steps = append(s.Steps, late)
	wantCode(t, Verify(s), VerifyPhaseOrder)
}

// Mutation: renaming the ΔG auxiliary binding orphans every plan that
// references it.
func TestVerifyRejectsRenamedBinding(t *testing.T) {
	s := gammaScript(t)
	renamed := false
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Diff == nil && strings.HasPrefix(cs.Name, "ΔG") {
			cs.Name += "-renamed"
			renamed = true
			break
		}
	}
	if !renamed {
		t.Fatal("fixture should have a ΔG auxiliary binding")
	}
	wantCode(t, Verify(s), VerifyUnboundRef)
}

// Mutation: widening an insert diff's ID set beyond the target's key — even
// consistently across compute, apply, and plan — is unsound per Table 1.
func TestVerifyRejectsWidenedIDSet(t *testing.T) {
	s := selectScript(t)
	wide := DiffSchema{Type: DiffInsert, Rel: "V",
		IDs: []string{"parts.pid", "parts.price"}}
	var mutated *ComputeStep
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Diff != nil && cs.Diff.Type == DiffInsert {
			cs.Plan = algebra.NewProject(cs.Plan, []algebra.ProjItem{
				{E: expr.C("parts.pid"), As: "parts.pid"},
				{E: expr.C(PostName("parts.price")), As: "parts.price"},
			})
			cs.Diff = &wide
			mutated = cs
			break
		}
	}
	if mutated == nil {
		t.Fatal("fixture should have an insert compute step")
	}
	for _, st := range s.Steps {
		if a, ok := st.(*ApplyStep); ok && a.DiffName == mutated.Name {
			a.Diff = wide
		}
	}
	wantCode(t, Verify(s), VerifyIDSet)
}

// Mutation: an insert diff that claims to carry pre-state has an illegal
// Section 2 shape.
func TestVerifyRejectsIllegalDiffShape(t *testing.T) {
	s := selectScript(t)
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Diff != nil && cs.Diff.Type == DiffInsert {
			d := *cs.Diff
			d.Pre = []string{"parts.price"}
			cs.Diff = &d
			break
		}
	}
	wantCode(t, Verify(s), VerifyDiffShape)
}

// Mutation: duplicating a binding name makes later references ambiguous.
func TestVerifyRejectsDuplicateBinding(t *testing.T) {
	s := selectScript(t)
	var names []string
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok {
			names = append(names, cs.Name)
		}
	}
	if len(names) < 2 {
		t.Fatal("fixture should have two compute steps")
	}
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Name == names[1] {
			cs.Name = names[0]
		}
	}
	wantCode(t, Verify(s), VerifyDuplicateBinding)
}

// Mutation: reading a cache's post-state before its applies have run sees a
// stale snapshot.
func TestVerifyRejectsStalePostRead(t *testing.T) {
	s := gammaScript(t)
	if len(s.Caches) == 0 {
		t.Fatal("fixture should have an input cache")
	}
	c := s.Caches[0]
	peek := &ComputeStep{Name: "peek",
		Plan: algebra.NewStoredRef(c.Name, c.Plan.Schema(), rel.StatePost),
		Ph:   PhaseCacheCompute}
	s.Steps = append([]Step{peek}, s.Steps...)
	wantCode(t, Verify(s), VerifyStalePostRead)
}

// Mutation: a cache declared but never maintained would silently go stale.
func TestVerifyRejectsOrphanCache(t *testing.T) {
	s := gammaScript(t)
	if len(s.Caches) == 0 {
		t.Fatal("fixture should have an input cache")
	}
	cache := s.Caches[0].Name
	var kept []Step
	for _, st := range s.Steps {
		if a, ok := st.(*ApplyStep); ok && a.Table == cache {
			continue
		}
		kept = append(kept, st)
	}
	s.Steps = kept
	wantCode(t, Verify(s), VerifyOrphanCache)
}

// Mutation: a surviving ∆-R ⋈ R_post join in a minimized script means the
// Figure 8 C2 rewrite was skipped or undone.
func TestVerifyRejectsUnsafeShapeAfterMinimize(t *testing.T) {
	s := gammaScript(t)
	if !s.Minimized {
		t.Fatal("generated script should be marked minimized")
	}
	var del DiffSchema
	delIdx := -1
	for i, ds := range s.Base["parts"] {
		if ds.Type == DiffDelete {
			del, delIdx = ds, i
		}
	}
	if delIdx < 0 {
		t.Fatal("base schemas should include a delete diff")
	}
	delRef := algebra.NewRelRef(BaseBindName("parts", delIdx), del.RelSchema())
	bad := algebra.NewJoin(delRef, algebra.NewScan("parts", "p2", minParts),
		expr.Eq(expr.C("pid"), expr.C("p2.pid")))
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Diff == nil && strings.HasPrefix(cs.Name, "ΔG") {
			cs.Plan = bad
			break
		}
	}
	wantCode(t, Verify(s), VerifyUnsafeShape)
	// The same shape is legitimate in an unminimized script: pass 4 is what
	// removes it, so its presence before minimization is not an error.
	s.Minimized = false
	if err := Verify(s); err != nil {
		t.Fatalf("unminimized script wrongly rejected: %v", err)
	}
}

// Mutation: undoing a share — inlining a transient step's plan back into
// the steps that read it — makes a script evaluate one diff-driven sub-plan
// once per reader. The seeded case is the recompute ΔR of a γ-MIN (Table
// 7): its three classification diffs read it.
func TestVerifyRejectsInlinedSharedSubplan(t *testing.T) {
	scan := algebra.NewScan("parts", "", minParts)
	sel := algebra.NewSelect(scan, expr.Gt(expr.C("parts.price"), expr.IntLit(0)))
	plan := algebra.NewGroupBy(sel, []string{"parts.price"},
		[]algebra.Agg{{Fn: algebra.AggMin, Arg: expr.C("parts.pid"), As: "first"}})
	base, err := GenerateBaseDiffSchemas(plan, verifyTableSchema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate("V", plan, base, false, GenOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	var shared *ComputeStep
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && strings.HasPrefix(cs.Name, "ΔR") {
			shared = cs
		}
	}
	if shared == nil {
		t.Fatalf("fixture should recompute affected groups into ΔR:\n%s", s)
	}
	var inline func(n algebra.Node) algebra.Node
	inline = func(n algebra.Node) algebra.Node {
		switch x := n.(type) {
		case *algebra.RelRef:
			if x.Name == shared.Name {
				return shared.Plan
			}
		case *algebra.Project, *algebra.SemiJoin:
			return algebra.MapChildren(n, inline)
		}
		return n
	}
	readers := 0
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs != shared {
			if p := inline(cs.Plan); p.String() != cs.Plan.String() {
				cs.Plan = p
				readers++
			}
		}
	}
	if readers < 2 {
		t.Fatalf("ΔR should have several readers, found %d:\n%s", readers, s)
	}
	ve := wantCode(t, Verify(s), VerifyDuplicateSubplan)
	if !strings.Contains(ve.Detail, "γ[parts.price") {
		t.Errorf("violation should name the repeated sub-plan: %s", ve)
	}
	if ve.Step < 0 || !strings.Contains(ve.Detail, "step") {
		t.Errorf("violation should name both evaluating steps: %s", ve)
	}
}

func TestVerifyErrorRendering(t *testing.T) {
	e := &VerifyError{Code: VerifyOrphanCache, View: "V", Step: -1, Name: "cache:V:1", Detail: "d"}
	for _, frag := range []string{"orphan-cache", "V", "script", "cache:V:1"} {
		if !strings.Contains(e.Error(), frag) {
			t.Errorf("error rendering missing %q: %s", frag, e.Error())
		}
	}
	e.Step = 3
	if !strings.Contains(e.Error(), "step 3") {
		t.Errorf("step index missing: %s", e.Error())
	}
}

// The sharing rule is about evaluations against the same state: the same
// probe of a cache's post-state before and after an apply to that cache is
// two different values and stays two evaluations; an apply to another table,
// or a probe of the frozen pre-state, changes nothing. shareRepeats hoists
// exactly what repeatedSubplan reports, once however many readers follow.
func TestRepeatedSubplanRespectsApplies(t *testing.T) {
	cache := rel.NewSchema([]string{"k", "v"}, []string{"k"})
	diff := algebra.NewRelRef("Δ1", rel.NewSchema([]string{"k@d"}, nil))
	probe := func(st rel.State) algebra.Node {
		return algebra.NewJoin(diff, algebra.NewStoredRef("c", cache, st), expr.Eq(expr.C("k@d"), expr.C("k")))
	}
	ds := &DiffSchema{Type: DiffInsert, Rel: "v", IDs: []string{"k"}}
	script := func(st rel.State, applyTo string) []Step {
		return []Step{
			&ComputeStep{Name: "Δ2", Diff: ds, Plan: probe(st)},
			&ApplyStep{Table: applyTo, DiffName: "Δ1"},
			&ComputeStep{Name: "Δ3", Diff: ds, Plan: probe(st)},
			&ComputeStep{Name: "Δ4", Plan: algebra.Keep(probe(st), "k")},
		}
	}
	for _, tc := range []struct {
		name     string
		steps    []Step
		prev, at int // -1: no repeat between Δ2 and Δ3
	}{
		{"post-state, apply to the cache between", script(rel.StatePost, "c"), 2, 3},
		{"post-state, apply to another table", script(rel.StatePost, "other"), 0, 2},
		{"pre-state, apply to the cache between", script(rel.StatePre, "c"), 0, 2},
	} {
		prev, at, sub := repeatedSubplan(tc.steps, newSubplans())
		if sub == nil || prev != tc.prev || at != tc.at {
			t.Errorf("%s: repeat (%d, %d, %v), want steps %d and %d", tc.name, prev, at, sub, tc.prev, tc.at)
		}
		g := &gen{steps: tc.steps}
		g.shareRepeats()
		var names []string
		for _, st := range g.steps {
			if cs, ok := st.(*ComputeStep); ok {
				names = append(names, cs.Name+"="+cs.Plan.String())
			} else {
				names = append(names, "APPLY")
			}
		}
		got := strings.Join(names, " ; ")
		want := "ΔS1=" + probe(rel.StatePost).String() + " ; Δ2=@ΔS1 ; APPLY ; Δ3=@ΔS1 ; Δ4=π[k](@ΔS1)"
		if tc.prev == 2 { // Δ2 keeps its own evaluation; Δ3 and Δ4 share the later one
			want = "Δ2=" + probe(rel.StatePost).String() + " ; APPLY ; ΔS1=" + probe(rel.StatePost).String() + " ; Δ3=@ΔS1 ; Δ4=π[k](@ΔS1)"
		} else if strings.HasPrefix(tc.name, "pre") {
			want = strings.ReplaceAll(want, "[post]", "[pre]")
		}
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
		if _, _, sub := repeatedSubplan(g.steps, newSubplans()); sub != nil {
			t.Errorf("%s: a repeat survives the pass: %s", tc.name, sub)
		}
	}
}

func TestPlanLeavesDedupAndOrder(t *testing.T) {
	// Join children need pairwise-disjoint attributes; only the leaf names
	// matter for the dedup assertion, so give every leaf its own columns.
	mk := func(pfx string) rel.Schema {
		return rel.NewSchema([]string{pfx + "_pid"}, []string{pfx + "_pid"})
	}
	plan := algebra.NewJoin(
		algebra.NewJoin(algebra.NewRelRef("d1", mk("a")), algebra.NewStoredRef("V", mk("b"), rel.StatePre), nil),
		algebra.NewJoin(algebra.NewRelRef("d1", mk("c")), algebra.NewScan("parts", "", mk("d")), nil),
		nil)
	got := planLeaves(plan)
	want := []planLeaf{
		{Kind: leafBinding, Name: "d1"},
		{Kind: leafStored, Name: "V", St: rel.StatePre},
		{Kind: leafScan, Name: "parts"},
	}
	if len(got) != len(want) {
		t.Fatalf("planLeaves = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("leaf %d = %v, want %v", i, got[i], want[i])
		}
	}
}
