package ivm_test

import (
	"strings"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// readsPost reports whether the plan reads the post-state of a stored table.
func readsPost(plan algebra.Node, table string) bool {
	found := false
	algebra.Walk(plan, func(n algebra.Node) {
		if r, ok := n.(*algebra.RelRef); ok && r.Stored && r.Name == table && r.St == rel.StatePost {
			found = true
		}
	})
	return found
}

// The combined group-delta (ΔG) and the shared contribution unions it
// reads (ΔS) read only pre-state, so the generator schedules these
// transient steps before the input cache's apply steps — both for the
// epoch's pre==post index sharing and as a regression guard on the
// pending-apply mechanism. Every step that reads the cache's post-state —
// a view diff or a transient step such as ΔR — comes after the last apply.
func TestScriptOrdering(t *testing.T) {
	d := fig2DB(t)
	s := ivm.NewSystem(d)
	v := register(t, s, "Vagg", aggPlan(t, d), ivm.ModeID)

	cacheName := v.Script.Caches[0].Name
	dgIdx, firstCacheApply, lastCacheApply := -1, -1, -1
	var preOnly, postReaders []int
	for i, st := range v.Script.Steps {
		switch x := st.(type) {
		case *ivm.ComputeStep:
			if strings.HasPrefix(x.Name, "ΔG") && dgIdx < 0 {
				dgIdx = i
			}
			if readsPost(x.Plan, cacheName) {
				postReaders = append(postReaders, i)
			} else if x.Diff == nil {
				preOnly = append(preOnly, i)
			}
		case *ivm.ApplyStep:
			if x.Table == cacheName {
				if firstCacheApply < 0 {
					firstCacheApply = i
				}
				lastCacheApply = i
			}
		}
	}
	if dgIdx < 0 || firstCacheApply < 0 || len(postReaders) == 0 || len(preOnly) < 3 {
		t.Fatalf("script missing ΔG, its shared inputs, cache applies or post-state readers:\n%s", v.Script)
	}
	for _, i := range preOnly {
		if i > firstCacheApply {
			t.Fatalf("pre-state-only transient step %d must precede the cache applies (step %d)", i, firstCacheApply)
		}
	}
	for _, i := range postReaders {
		if i < lastCacheApply {
			t.Fatalf("step %d reads the cache's post-state before its last apply (step %d)", i, lastCacheApply)
		}
	}
	// The same on a script with Table 7's transient steps: city_minmax's
	// MIN/MAX γ recomputes its groups from the #mult cache, so its ΔR reads
	// the cache's post-state; the ΔG of the #mult γ does not.
	ds := bsma.Build(bsma.Defaults(40))
	minmax, err := ds.Plan("city_minmax")
	if err != nil {
		t.Fatal(err)
	}
	q := register(t, ivm.NewSystem(ds.DB), "city_minmax", minmax, ivm.ModeID)
	last, transientReaders := -1, 0
	for i, st := range q.Script.Steps {
		if a, ok := st.(*ivm.ApplyStep); ok && a.Table == q.Script.Caches[0].Name {
			last = i
		}
	}
	for i, st := range q.Script.Steps {
		if c, ok := st.(*ivm.ComputeStep); ok && readsPost(c.Plan, q.Script.Caches[0].Name) {
			if c.Diff == nil {
				transientReaders++
			}
			if i < last {
				t.Fatalf("%s (step %d) reads the cache's post-state before its last apply (step %d)", c.Name, i, last)
			}
		} else if ok && strings.HasPrefix(c.Name, "ΔG") && i > last {
			t.Fatalf("ΔG (step %d) should precede the cache applies (last at %d)", i, last)
		}
	}
	if transientReaders == 0 {
		t.Fatalf("city_minmax should have a transient step reading the cache's post-state:\n%s", q.Script)
	}
	// Apply ordering within a table: deletes, then updates, then inserts.
	var kinds []ivm.DiffType
	for _, st := range v.Script.Steps {
		if a, ok := st.(*ivm.ApplyStep); ok && a.Table == cacheName {
			kinds = append(kinds, a.Diff.Type)
		}
	}
	rank := map[ivm.DiffType]int{ivm.DiffDelete: 0, ivm.DiffUpdate: 1, ivm.DiffInsert: 2}
	for i := 1; i < len(kinds); i++ {
		if rank[kinds[i]] < rank[kinds[i-1]] {
			t.Fatalf("cache applies out of order: %v", kinds)
		}
	}
}
