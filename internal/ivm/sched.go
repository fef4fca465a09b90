// Δ-script scheduling: the bounded worker pool executing a script's step
// DAG, and the view-level parallel-for used by System.MaintainAll.
//
// This file is the package's only blessed home for goroutine launches (the
// ivmlint gostmt rule enforces it): all concurrency in internal/ivm flows
// through the pool below, so worker counts stay bounded and shutdown stays
// in one place.

package ivm

import (
	"sync"
	"time"

	"idivm/internal/rel"
)

// stepResult carries one executed step's outcome back to the scheduler:
// its sharded access counts, wall time, apply bookkeeping, and — for view
// applies under self-checking — the instance to validate afterwards.
type stepResult struct {
	idx             int
	err             error
	cost            rel.CostCounter
	dur             time.Duration
	rows            int // a compute step's result rows
	rowsTouched     int
	viewDiffTuples  int
	viewRowsTouched int
	applied         *Instance // view-level instance, for effectiveness checks
}

// runDAG executes the script's steps on a pool of `workers` goroutines,
// dispatching a step as soon as its DAG predecessors complete. Each step
// charges a private CostCounter shard, merged into root (and the returned
// results) on completion by the single dispatcher goroutine, so PhaseCosts
// totals are exactly those of a sequential run. On step failure no new
// steps are dispatched; after in-flight steps drain, the failed step with
// the smallest script index determines the returned error, matching the
// sequential run's error on deterministic failures.
func (x *scriptExec) runDAG(workers int, root *rel.CostCounter) ([]stepResult, error) {
	n := len(x.s.Steps)
	if workers > n {
		workers = n
	}
	d := buildDAG(x.s)
	workCh := make(chan int, n)
	resCh := make(chan stepResult, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range workCh {
				var shard rel.CostCounter
				resCh <- x.runStep(i, &shard)
			}
		}()
	}

	pending := 0
	for i := 0; i < n; i++ {
		if d.indeg[i] == 0 {
			workCh <- i
			pending++
		}
	}
	results := make([]stepResult, n)
	errIdx := -1
	for pending > 0 {
		r := <-resCh
		pending--
		results[r.idx] = r
		root.Add(r.cost)
		if r.err != nil {
			if errIdx < 0 || r.idx < errIdx {
				errIdx = r.idx
			}
			continue
		}
		if errIdx >= 0 {
			continue // draining in-flight steps only
		}
		for _, j := range d.succ[r.idx] {
			d.indeg[j]--
			if d.indeg[j] == 0 {
				workCh <- j
				pending++
			}
		}
	}
	close(workCh)
	wg.Wait()
	if errIdx >= 0 {
		return nil, results[errIdx].err
	}
	return results, nil
}

// parallelFor runs fn(0) … fn(n-1) on up to `workers` goroutines and
// blocks until all calls return. fn must confine its side effects to
// index-owned state (slot i of a results slice).
func parallelFor(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idxCh := make(chan int, n)
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
