package ivm

import (
	"idivm/internal/algebra"
	"idivm/internal/rel"
)

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
// references, deduplicated on first appearance. Both the static verifier
// (def-before-use, freshness) and the step-dependency DAG builder consume
// this single extraction, so the two can never disagree about what a step
// reads.
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

// stepDAG is the dependency DAG of a Δ-script's steps: succ[i] lists the
// steps that must wait for step i, indeg[j] counts the steps j waits for.
// Every edge points forward in script order (the verifier's def-before-use
// and phase-ordering guarantees make the script a valid linear extension),
// so any topological execution reproduces the sequential semantics.
type stepDAG struct {
	succ  [][]int
	indeg []int
}

// buildDAG extracts the dependency DAG of a verified script. Edges:
//
//   - def-use: the compute step defining a binding precedes every step
//     referencing it (compute plans and the apply of that diff);
//   - apply-apply: apply steps targeting the same table form a chain in
//     script order, so per-table apply order — and therefore the exact
//     access counts of each apply — matches the sequential run;
//   - post-read-after-apply: a compute step reading the post-state of a
//     stored target waits for the target's last apply (the verifier's
//     freshness check guarantees all applies precede it in script order).
//
// Pre-state reads take no edge: the epoch's pre-state is frozen at script
// start and the storage backend's locking makes concurrent pre-reads
// race-free even while the post-state is being mutated.
func buildDAG(s *Script) *stepDAG {
	n := len(s.Steps)
	d := &stepDAG{succ: make([][]int, n), indeg: make([]int, n)}
	type edge struct{ from, to int }
	seen := map[edge]bool{}
	addEdge := func(from, to int) {
		if from == to || seen[edge{from, to}] {
			return
		}
		seen[edge{from, to}] = true
		d.succ[from] = append(d.succ[from], to)
		d.indeg[to]++
	}

	producer := map[string]int{}  // binding name → defining compute step
	lastApply := map[string]int{} // table name → latest apply step so far
	for i, st := range s.Steps {
		switch x := st.(type) {
		case *ComputeStep:
			for _, l := range planLeaves(x.Plan) {
				switch l.Kind {
				case leafBinding:
					if p, ok := producer[l.Name]; ok {
						addEdge(p, i)
					}
				case leafStored:
					if l.St == rel.StatePost {
						if a, ok := lastApply[l.Name]; ok {
							addEdge(a, i)
						}
					}
				}
			}
			producer[x.Name] = i
		case *ApplyStep:
			if p, ok := producer[x.DiffName]; ok {
				addEdge(p, i)
			}
			if a, ok := lastApply[x.Table]; ok {
				addEdge(a, i)
			}
			lastApply[x.Table] = i
		}
	}
	return d
}
