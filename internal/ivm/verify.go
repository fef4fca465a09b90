package ivm

import (
	"fmt"
	"slices"
	"strconv"

	"idivm/internal/algebra"
	"idivm/internal/rel"
)

// VerifyCode classifies the invariant a Δ-script violates. Each code names
// one of the static well-formedness conditions a compiled script must meet
// before the executor may run it; tests assert on codes, and operators can
// key alerting off them.
type VerifyCode string

// The verifier's error codes.
const (
	// VerifyUnboundRef: a compute plan references a binding that is neither
	// a base diff instance nor the result of an earlier compute step.
	VerifyUnboundRef VerifyCode = "unbound-ref"
	// VerifyUnknownTable: a plan or apply step touches a stored table that
	// is neither the view, a declared cache, nor a base table of the view.
	VerifyUnknownTable VerifyCode = "unknown-table"
	// VerifyUnboundDiff: an apply step's DiffName was never computed before
	// the apply executes.
	VerifyUnboundDiff VerifyCode = "unbound-diff"
	// VerifyDuplicateBinding: two compute steps bind the same name.
	VerifyDuplicateBinding VerifyCode = "duplicate-binding"
	// VerifyOrphanCache: a declared cache is never maintained by any apply
	// step (its contents would silently go stale).
	VerifyOrphanCache VerifyCode = "orphan-cache"
	// VerifyPhaseKind: a step's phase does not match its kind or target
	// (e.g. a compute step tagged as an update phase, or a view apply not
	// tagged PhaseViewUpdate).
	VerifyPhaseKind VerifyCode = "phase-kind"
	// VerifyPhaseOrder: pass-3 ordering violated — a compute or cache
	// maintenance step appears after view updates have begun.
	VerifyPhaseOrder VerifyCode = "phase-order"
	// VerifyStalePostRead: a compute plan reads the post-state of a stored
	// target before every apply step for that target has executed.
	VerifyStalePostRead VerifyCode = "stale-post-read"
	// VerifySchemaMismatch: a compute plan's output schema does not match
	// its declared diff schema, or an apply step's diff schema disagrees
	// with the one declared at the compute step.
	VerifySchemaMismatch VerifyCode = "schema-mismatch"
	// VerifyDiffShape: a diff schema violates the Section 2 shape rules
	// (insert with pre-state, delete with post-state, update without
	// post-state).
	VerifyDiffShape VerifyCode = "diff-shape"
	// VerifyIDSet: a diff's ID set is inconsistent with the Table 1 IDs of
	// its target (not a key subset; or, for inserts, not the full key with
	// post values for every non-key attribute).
	VerifyIDSet VerifyCode = "id-set"
	// VerifyUnsafeShape: a minimized plan still combines a delete diff with
	// the post-state of its own target relation on the diff's full ID set —
	// a shape constraints C1–C3 (Figure 8) prove vacuous, so its survival
	// means minimization was unsound or skipped.
	VerifyUnsafeShape VerifyCode = "unsafe-shape"
	// VerifyCyclicView: the plan being registered reads the view under
	// registration, directly (a scan of its own name) or through the
	// sources of an already-registered view — cascades must form a DAG so
	// topological (level-ordered) maintenance terminates.
	VerifyCyclicView VerifyCode = "cyclic-view"
	// VerifyDuplicateSubplan: a script evaluates one diff-driven sub-plan
	// twice against the same state. Generation ends by hoisting such repeats
	// (gen.shareRepeats), so no view plan can trip this; it guards that pass.
	VerifyDuplicateSubplan VerifyCode = "duplicate-subplan"
)

// VerifyError is a structured verification failure naming the offending
// step of the script.
type VerifyError struct {
	Code VerifyCode
	View string
	// Step indexes Script.Steps; -1 for script-level problems (cache
	// definitions, orphaned caches).
	Step int
	// Name identifies the entity involved: a binding, cache or table name.
	Name   string
	Detail string
}

// Error implements error.
func (e *VerifyError) Error() string {
	at := "script"
	if e.Step >= 0 {
		at = fmt.Sprintf("step %d", e.Step)
	}
	return fmt.Sprintf("ivm: verify %s: %s at %s (%s): %s", e.View, e.Code, at, e.Name, e.Detail)
}

func verr(s *Script, code VerifyCode, step int, name, format string, args ...any) *VerifyError {
	return &VerifyError{Code: code, View: s.View, Step: step, Name: name, Detail: fmt.Sprintf(format, args...)}
}

// Verify statically checks a compiled Δ-script without executing it:
//
//   - def-before-use: every plan only references bindings already defined
//     (base diff instances or earlier compute results), every apply resolves
//     to a computed diff, and stored accesses only touch the view, declared
//     caches, or base tables;
//   - phase soundness: step phases match step kinds and targets, and no
//     computation or cache maintenance runs after view updates begin
//     (Section 4 pass 3's cache-before-view ordering);
//   - freshness: no plan reads the post-state of the view or a cache while
//     apply steps for that target are still pending;
//   - schema/type soundness: each compute step's plan produces exactly the
//     columns of its declared diff schema, diff schemas have the Section 2
//     shape for their type, and every applied diff's ID set is consistent
//     with the Table 1 IDs (the key) of its target table, and the view's
//     plan over its caches (CachedPlan) gives the view ViewPlan's columns
//     and key;
//   - cache bookkeeping: apply targets are declared, and every declared
//     cache is maintained;
//   - minimization safety (minimized scripts only): no surviving join,
//     semijoin or antisemijoin combines a delete diff with its own target's
//     post-state on the diff's full IDs — the C2 shapes Figure 8 proves
//     empty;
//   - sharing: no diff-driven sub-plan is evaluated twice against the same
//     state (repeatedSubplan).
//
// It returns nil or the first violation as a *VerifyError.
func Verify(s *Script) error {
	// Known stored targets and their schemas.
	targets := map[string]rel.Schema{s.View: s.ViewPlan.Schema()}
	cacheIdx := make(map[string]int, len(s.Caches))
	for i, c := range s.Caches {
		if _, dup := targets[c.Name]; dup {
			return verr(s, VerifyDuplicateBinding, -1, c.Name, "cache name collides with an existing target")
		}
		targets[c.Name] = c.Plan.Schema()
		cacheIdx[c.Name] = i
	}

	// Base tables and the bindings their diff instances arrive under.
	baseTables := map[string]bool{}
	bound := map[string]bool{}
	diffs := map[string]DiffSchema{}
	for _, table := range s.Base.Tables() {
		baseTables[table] = true
		for i, ds := range s.Base[table] {
			name := BaseBindName(table, i)
			bound[name] = true
			diffs[name] = ds
		}
	}
	for _, st := range s.Steps {
		if cs, ok := st.(*ComputeStep); ok && cs.Diff != nil {
			diffs[cs.Name] = *cs.Diff
		}
	}

	// Cache definition plans: materialization order means a cache plan may
	// scan base tables and reference strictly earlier caches.
	for i, c := range s.Caches {
		if err := checkPlanRefs(s, -1, c.Name, c.Plan, func(name string) bool { return false },
			func(name string) bool {
				j, ok := cacheIdx[name]
				return ok && j < i
			}, baseTables); err != nil {
			return err
		}
	}
	isCache := func(name string) bool { _, ok := cacheIdx[name]; return ok }
	if err := checkPlanRefs(s, -1, s.View, s.ViewPlan, func(string) bool { return false }, isCache, baseTables); err != nil {
		return err
	}
	// The view is materialized from CachedPlan and checked against ViewPlan:
	// both must give its table the same columns, in order, and key.
	if s.CachedPlan != nil {
		if err := checkPlanRefs(s, -1, s.View, s.CachedPlan, func(string) bool { return false }, isCache, baseTables); err != nil {
			return err
		}
		if got, want := s.CachedPlan.Schema(), targets[s.View]; !slices.Equal(got.Attrs, want.Attrs) || !slices.Equal(got.Key, want.Key) {
			return verr(s, VerifySchemaMismatch, -1, s.View,
				"view plan over its caches yields %v key %v, the view plan %v key %v", got.Attrs, got.Key, want.Attrs, want.Key)
		}
	}

	// Pending apply counts per target, for the freshness check.
	pendingApplies := map[string]int{}
	for _, st := range s.Steps {
		if a, ok := st.(*ApplyStep); ok {
			pendingApplies[a.Table]++
		}
	}
	for _, c := range s.Caches {
		if pendingApplies[c.Name] == 0 {
			return verr(s, VerifyOrphanCache, -1, c.Name, "declared cache is never maintained by an apply step")
		}
	}

	computed := map[string]int{}             // binding name → defining step index
	computedDiff := map[string]*DiffSchema{} // binding name → declared diff schema
	sawViewUpdate := false

	for i, st := range s.Steps {
		switch x := st.(type) {
		case *ComputeStep:
			if x.Ph != PhaseCacheCompute && x.Ph != PhaseViewCompute {
				return verr(s, VerifyPhaseKind, i, x.Name, "compute step tagged with update phase %s", x.Ph)
			}
			if sawViewUpdate {
				return verr(s, VerifyPhaseOrder, i, x.Name, "compute step after view updates began")
			}
			if _, dup := computed[x.Name]; dup || bound[x.Name] {
				return verr(s, VerifyDuplicateBinding, i, x.Name, "binding defined twice")
			}
			isBound := func(name string) bool {
				if bound[name] {
					return true
				}
				_, ok := computed[name]
				return ok
			}
			isTarget := func(name string) bool { _, ok := targets[name]; return ok }
			if err := checkPlanRefs(s, i, x.Name, x.Plan, isBound, isTarget, baseTables); err != nil {
				return err
			}
			// Freshness: post-state reads require all applies to the target
			// to have executed already.
			for _, l := range planLeaves(x.Plan) {
				if l.Kind == leafStored && l.St == rel.StatePost && pendingApplies[l.Name] > 0 {
					return verr(s, VerifyStalePostRead, i, x.Name,
						"plan reads post-state of %q with %d apply step(s) still pending",
						l.Name, pendingApplies[l.Name])
				}
			}
			if x.Diff != nil {
				if err := checkDiffShape(s, i, x.Name, *x.Diff); err != nil {
					return err
				}
				if _, ok := targets[x.Diff.Rel]; !ok {
					return verr(s, VerifyUnknownTable, i, x.Name,
						"diff is declared over %q, which is neither the view nor a cache", x.Diff.Rel)
				}
				want := x.Diff.RelSchema().Attrs
				got := x.Plan.Schema().Attrs
				if !setEqualStrs(want, got) {
					return verr(s, VerifySchemaMismatch, i, x.Name,
						"plan produces columns %v but diff schema %s requires %v", got, x.Diff, want)
				}
			}
			computed[x.Name] = i
			computedDiff[x.Name] = x.Diff

		case *ApplyStep:
			if x.Ph != PhaseCacheUpdate && x.Ph != PhaseViewUpdate {
				return verr(s, VerifyPhaseKind, i, x.DiffName, "apply step tagged with compute phase %s", x.Ph)
			}
			if _, ok := computed[x.DiffName]; !ok {
				return verr(s, VerifyUnboundDiff, i, x.DiffName, "apply of a diff that has not been computed")
			}
			ds := computedDiff[x.DiffName]
			if ds == nil {
				return verr(s, VerifySchemaMismatch, i, x.DiffName,
					"apply of auxiliary binding with no declared diff schema")
			}
			if !ds.Equal(x.Diff) {
				return verr(s, VerifySchemaMismatch, i, x.DiffName,
					"apply schema %s disagrees with computed schema %s", x.Diff, *ds)
			}
			tSchema, ok := targets[x.Table]
			if !ok {
				return verr(s, VerifyUnknownTable, i, x.Table, "apply targets an undeclared table")
			}
			wantPh := PhaseCacheUpdate
			if x.Table == s.View {
				wantPh = PhaseViewUpdate
			}
			if x.Ph != wantPh {
				return verr(s, VerifyPhaseKind, i, x.DiffName,
					"apply to %q must run in phase %s, not %s", x.Table, wantPh, x.Ph)
			}
			if x.Table == s.View {
				sawViewUpdate = true
			} else if sawViewUpdate {
				return verr(s, VerifyPhaseOrder, i, x.DiffName, "cache update after view updates began")
			}
			if err := checkIDSet(s, i, x, tSchema); err != nil {
				return err
			}
			pendingApplies[x.Table]--

		default:
			return verr(s, VerifyPhaseKind, i, fmt.Sprintf("%T", st), "unknown step type")
		}
	}

	// Minimization safety: C2 residue detection on minimized scripts.
	if s.Minimized {
		m := &minimizer{diffs: diffs}
		for i, st := range s.Steps {
			cs, ok := st.(*ComputeStep)
			if !ok {
				continue
			}
			var bad error
			algebra.Walk(cs.Plan, func(n algebra.Node) {
				if bad != nil {
					return
				}
				switch x := n.(type) {
				case *algebra.Join:
					if m.deleteDiffVsOwnPost(x.Left, x.Right, x.Pred) ||
						m.deleteDiffVsOwnPost(x.Right, x.Left, x.Pred) {
						bad = verr(s, VerifyUnsafeShape, i, cs.Name,
							"delete diff joined with its own target's post-state (C2 makes this empty)")
					}
				case *algebra.SemiJoin:
					if m.deleteDiffVsOwnPost(x.Left, x.Right, x.Pred) {
						what := "semijoined with its own target's post-state (C2 makes this empty)"
						if x.Anti {
							what = "antijoined with its own target's post-state (C2 makes this the diff itself)"
						}
						bad = verr(s, VerifyUnsafeShape, i, cs.Name, "delete diff %s", what)
					}
				}
			})
			if bad != nil {
				return bad
			}
		}
	}
	if prev, at, sub := repeatedSubplan(s.Steps, newSubplans()); sub != nil {
		return verr(s, VerifyDuplicateSubplan, at, s.Steps[at].(*ComputeStep).Name,
			"diff-driven sub-plan already evaluated at step %d: %s", prev, sub)
	}
	return nil
}

// leafKind classifies one leaf reference of a compiled plan.
type leafKind uint8

// The three leaf reference kinds.
const (
	leafBinding leafKind = iota // non-stored RelRef: a base diff or compute result
	leafStored                  // stored RelRef: the view or a cache, with a state
	leafScan                    // Scan of a base table
)

// planLeaf is one deduplicated leaf reference of a plan: what the plan
// reads, and — for stored reads — which epoch state it reads.
type planLeaf struct {
	Kind leafKind
	Name string
	St   rel.State // meaningful for leafStored only
}

// planLeaves walks a plan in evaluation (pre-)order and returns its leaf
// references, deduplicated on first appearance — the one extraction of what
// a step reads, behind the verifier's def-before-use and freshness checks
// and the generator's placement of transient steps (gen.share).
func planLeaves(plan algebra.Node) []planLeaf {
	var out []planLeaf
	seen := map[planLeaf]bool{}
	add := func(l planLeaf) {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	algebra.Walk(plan, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.RelRef:
			if x.Stored {
				add(planLeaf{Kind: leafStored, Name: x.Name, St: x.St})
			} else {
				add(planLeaf{Kind: leafBinding, Name: x.Name})
			}
		case *algebra.Scan:
			add(planLeaf{Kind: leafScan, Name: x.Table})
		}
	})
	return out
}

// checkPlanRefs validates the leaves of a plan (planLeaves) in
// first-appearance order: non-stored references must be bound, stored
// references must name a known target, and scans must read base tables of
// the view.
func checkPlanRefs(s *Script, step int, name string, plan algebra.Node,
	isBound, isTarget func(string) bool, baseTables map[string]bool) error {
	for _, l := range planLeaves(plan) {
		switch l.Kind {
		case leafStored:
			if !isTarget(l.Name) {
				return verr(s, VerifyUnknownTable, step, name,
					"plan references stored table %q, which is neither the view nor an available cache", l.Name)
			}
		case leafBinding:
			if !isBound(l.Name) {
				return verr(s, VerifyUnboundRef, step, name,
					"plan references binding %q before it is defined", l.Name)
			}
		case leafScan:
			if !baseTables[l.Name] {
				return verr(s, VerifyUnknownTable, step, name,
					"plan scans %q, which is not a base table of the view", l.Name)
			}
		}
	}
	return nil
}

// checkDiffShape enforces the Section 2 shape of a diff schema: inserts
// carry no pre-state, deletes no post-state, updates at least one post
// attribute, and every diff identifies tuples by at least one ID.
func checkDiffShape(s *Script, step int, name string, ds DiffSchema) error {
	if len(ds.IDs) == 0 {
		return verr(s, VerifyDiffShape, step, name, "diff %s has no ID attributes", ds)
	}
	switch ds.Type {
	case DiffInsert:
		if len(ds.Pre) > 0 {
			return verr(s, VerifyDiffShape, step, name, "insert diff %s carries pre-state", ds)
		}
	case DiffDelete:
		if len(ds.Post) > 0 {
			return verr(s, VerifyDiffShape, step, name, "delete diff %s carries post-state", ds)
		}
	case DiffUpdate:
		if len(ds.Post) == 0 {
			return verr(s, VerifyDiffShape, step, name, "update diff %s has no post attributes", ds)
		}
	default:
		return verr(s, VerifyDiffShape, step, name, "unknown diff type %d", ds.Type)
	}
	return nil
}

// checkIDSet validates an applied diff's ID subset against the Table 1 IDs
// (the key) of its target table, per the APPLY semantics of Section 2.
func checkIDSet(s *Script, step int, a *ApplyStep, tSchema rel.Schema) error {
	ds := a.Diff
	for _, id := range ds.IDs {
		if !rel.Contains(tSchema.Key, id) {
			return verr(s, VerifyIDSet, step, a.DiffName,
				"diff ID %q is not among target %s's IDs %v", id, a.Table, tSchema.Key)
		}
	}
	for _, attr := range append(append([]string(nil), ds.Pre...), ds.Post...) {
		if !tSchema.Has(attr) {
			return verr(s, VerifyIDSet, step, a.DiffName,
				"diff attribute %q is not a column of target %s", attr, a.Table)
		}
	}
	switch ds.Type {
	case DiffInsert:
		if !slices.Equal(ds.IDs, tSchema.Key) {
			return verr(s, VerifyIDSet, step, a.DiffName,
				"insert diff IDs %v must equal the full key %v of %s", ds.IDs, tSchema.Key, a.Table)
		}
		if !setEqualStrs(ds.Post, tSchema.NonKey()) {
			return verr(s, VerifyIDSet, step, a.DiffName,
				"insert diff post set %v must cover the non-key attributes %v of %s",
				ds.Post, tSchema.NonKey(), a.Table)
		}
	case DiffUpdate:
		for _, attr := range ds.Post {
			if rel.Contains(ds.IDs, attr) {
				return verr(s, VerifyIDSet, step, a.DiffName,
					"update diff modifies its own ID attribute %q", attr)
			}
		}
	}
	return nil
}

// setEqualStrs reports whether two string slices contain the same set of
// elements (each slice being duplicate-free by construction).
func setEqualStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !rel.Contains(b, x) {
			return false
		}
	}
	return true
}

// subplans interns plan nodes bottom-up: two nodes get the same id iff they
// render alike and scan the same states. A node's key is its own operator
// (algebra.Op) over its children's ids, so interning a plan is linear in
// its size (registration time is a benchmark metric); nodes are immutable,
// so generation keeps one table across the iterations of shareRepeats.
//
// driven marks a sub-plan worth a step of its own: it reads stored data, so
// evaluating it is charged, and a binding of the round, so it is free
// whenever its diffs are empty. A sub-plan without a binding is an access
// path or the Input of a subview the mode did not materialize: it is
// evaluated only through the diff-driven operator above it, and a step of
// its own would compute the whole subview every round.
type subplans struct {
	ids   map[string]int
	nodes map[algebra.Node]subplan
}

type subplan struct {
	id            int
	stored, bound bool
}

func (sp subplan) driven() bool { return sp.stored && sp.bound }

func newSubplans() *subplans {
	return &subplans{ids: map[string]int{}, nodes: map[algebra.Node]subplan{}}
}

func (m *subplans) of(n algebra.Node) subplan {
	sp, ok := m.nodes[n]
	if ok {
		return sp
	}
	key := []byte(algebra.Op(n))
	for _, c := range n.Children() {
		k := m.of(c)
		sp.stored, sp.bound = sp.stored || k.stored, sp.bound || k.bound
		key = strconv.AppendInt(append(key, '#'), int64(k.id), 10)
	}
	switch x := n.(type) {
	case *algebra.Scan:
		sp.stored = true
		key = append(append(key, '|'), x.St.String()...) // the state, which Op omits
	case *algebra.RelRef:
		sp.stored, sp.bound = x.Stored, !x.Stored
	}
	if sp.id, ok = m.ids[string(key)]; !ok {
		sp.id = len(m.ids)
		m.ids[string(key)] = sp.id
	}
	m.nodes[n] = sp
	return sp
}

// repeatedSubplan finds the first breach of "computed once and referenced
// by name" (Section 4 pass 3, Figure 7), extended from diffs to their
// sub-plans: a diff-driven sub-plan that step `at` evaluates although step
// prev (possibly the same one) did and no apply step since changed a table
// the sub-plan reads in post-state — pre-states are frozen for the round
// and no script writes a base table, so both evaluations agree. It returns
// the largest such sub-plan of the earliest such step, or a nil sub.
func repeatedSubplan(steps []Step, memo *subplans) (prev, at int, sub algebra.Node) {
	seen := map[int]int{}         // sub-plan id → step that last evaluated it
	lastApply := map[string]int{} // table → latest apply step so far
	for i, st := range steps {
		cs, ok := st.(*ComputeStep)
		if !ok {
			lastApply[st.(*ApplyStep).Table] = i
			continue
		}
		algebra.Walk(cs.Plan, func(n algebra.Node) {
			sp := memo.of(n)
			if sub != nil || !sp.driven() {
				return
			}
			p, dup := seen[sp.id]
			seen[sp.id] = i
			if !dup {
				return
			}
			for _, l := range planLeaves(n) {
				if a, ok := lastApply[l.Name]; ok && l.Kind == leafStored && l.St == rel.StatePost && a > p {
					return // re-evaluated against a newer state
				}
			}
			prev, at, sub = p, i, n
		})
		if sub != nil {
			break
		}
	}
	return prev, at, sub
}
