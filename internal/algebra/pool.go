// Intra-operator worker pool: the package's only blessed home for
// goroutine launches (the ivmlint gostmt rule enforces it, exactly as it
// does for internal/ivm/sched.go). All operator-kernel concurrency in
// internal/algebra flows through parallelFor below, so worker counts stay
// bounded by the caller's Knobs.OpWorkers and there is exactly one place to
// reason about goroutine lifetime: every launch is joined before the
// kernel returns.

package algebra

import (
	"sync"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// MinOpRows is the smallest input cardinality at which a parallel kernel
// engages; below it the sequential loop wins on constant factors alone.
// A variable rather than a constant so the differential tests can force
// the parallel kernels on small seeded inputs.
var MinOpRows = 1024

// span is a half-open chunk [lo, hi) of a batch's rows.
type span struct{ lo, hi int }

// chunkSpans splits n items into at most k contiguous, near-equal chunks
// in order. Concatenating per-chunk results in span order reproduces the
// sequential iteration order — the merge contract every kernel relies on.
func chunkSpans(n, k int) []span {
	if k > n {
		k = n
	}
	if k < 1 {
		return nil
	}
	out := make([]span, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo < hi {
			out = append(out, span{lo: lo, hi: hi})
		}
	}
	return out
}

// spansFor splits n input rows into the chunks a kernel fans out over: one
// chunk — the sequential run — without workers or below MinOpRows, up to w
// near-equal chunks otherwise.
func spansFor(n, w int) []span {
	if w < 2 || n < MinOpRows {
		w = 1
	}
	return chunkSpans(n, w)
}

// chargedSpans runs fn once per span on up to w workers. A lone span runs
// against t itself; otherwise each call gets a handle charging a private
// counter shard, and the shards merge into t in span order. Handle charges
// are per-call sums, so the totals equal the sequential loop's, and the
// error returned is the first in span order.
func chargedSpans(t *storage.Handle, w int, spans []span, fn func(i int, th *storage.Handle) error) error {
	if len(spans) == 1 {
		return fn(0, t)
	}
	shards := make([]rel.CostCounter, len(spans))
	errs := make([]error, len(spans))
	parallelFor(w, len(spans), func(i int) {
		errs[i] = fn(i, t.WithCounter(&shards[i]))
	})
	for i := range shards {
		t.Merge(shards[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelFor runs fn(0) … fn(n-1) on up to `workers` goroutines and
// blocks until all calls return, mirroring internal/ivm/sched.go's
// convention. fn must confine its side effects to index-owned state
// (slot i of a results slice).
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
