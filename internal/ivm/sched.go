// View-level parallelism: the parallel-for System.MaintainAll fans a cascade
// level's views out on. A Δ-script's own steps always run in script order on
// the goroutine maintaining its view (exec.go).
//
// This file is the package's only blessed home for goroutine launches (the
// ivmlint gostmt rule enforces it): all concurrency in internal/ivm flows
// through parallelFor, so worker counts stay bounded and the join stays in
// one place.

package ivm

import "sync"

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
