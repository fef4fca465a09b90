package algebra

import (
	"sync/atomic"
	"testing"

	"idivm/internal/rel"
)

func TestChunkSpans(t *testing.T) {
	cases := []struct {
		n, k int
		want []span
	}{
		{0, 4, nil},
		{3, 1, []span{{0, 3}}},
		{3, 8, []span{{0, 1}, {1, 2}, {2, 3}}},
		{10, 3, []span{{0, 3}, {3, 6}, {6, 10}}},
		{8, 4, []span{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
	}
	for _, c := range cases {
		got := chunkSpans(c.n, c.k)
		if len(got) != len(c.want) {
			t.Errorf("chunkSpans(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			continue
		}
		covered := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("chunkSpans(%d,%d)[%d] = %v, want %v", c.n, c.k, i, got[i], c.want[i])
			}
			covered += got[i].hi - got[i].lo
		}
		if covered != c.n {
			t.Errorf("chunkSpans(%d,%d) covers %d elements", c.n, c.k, covered)
		}
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var hits [100]int32
		parallelFor(workers, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

type fakeKnobEnv struct {
	Env
	w int
}

func (e *fakeKnobEnv) OpWorkers() int { return e.w }

// A plain Env and out-of-range worker counts normalize to sequential.
func TestOpWorkersDefaultsSequential(t *testing.T) {
	var plain Env // nil concrete env: no KnobEnv implementation
	if got := opWorkersOf(plain); got != 1 {
		t.Errorf("opWorkersOf(plain) = %d", got)
	}
	for _, c := range []struct{ in, want int }{{4, 4}, {1, 1}, {0, 1}, {-2, 1}} {
		if got := opWorkersOf(&fakeKnobEnv{w: c.in}); got != c.want {
			t.Errorf("opWorkersOf(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// The probe clone must share the prepared plan pieces but allocate private
// scratch buffers — each worker mutates valsBuf/rowsBuf per probe.
func TestProbeCloneSharesPrepNotScratch(t *testing.T) {
	p := &cProbe{
		table:   "t",
		nJoin:   1,
		litVals: []rel.Value{rel.Int(7)},
		valsBuf: []rel.Value{rel.Int(1), rel.Int(7)},
		rowsBuf: []rel.Tuple{{rel.Int(1)}},
	}
	q := p.clone()
	if q.table != p.table || q.nJoin != p.nJoin {
		t.Fatalf("clone lost prep fields: %+v", q)
	}
	if len(q.valsBuf) != 2 || !q.valsBuf[1].Equal(rel.Int(7)) {
		t.Fatalf("clone valsBuf = %v, want literals pre-filled at [nJoin:]", q.valsBuf)
	}
	q.valsBuf[0] = rel.Int(99)
	if p.valsBuf[0].Equal(rel.Int(99)) {
		t.Fatal("clone shares valsBuf with the original")
	}
	if q.rowsBuf != nil {
		t.Fatalf("clone must start with empty scratch, got rowsBuf=%v", q.rowsBuf)
	}
}
