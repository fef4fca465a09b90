// Skew-adaptive probe execution: the heavy/light partitioning of the
// compiled probe-join strategies (Abo-Khamis et al.'s heavy-light lever,
// adapted to the paper's access-count model). When the environment grants
// a positive Knobs.SkewThreshold, a probe join consults the
// storage layer's uncharged key-frequency statistics (Table.HeavyKeys)
// before the probe loop runs and splits the driving rows into two lanes:
//
//   - heavy lane — driving keys whose stored-side frequency reaches the
//     threshold. A sequential pre-pass probes each distinct heavy key
//     exactly once, on the step's main counter, and caches the (residual-
//     filtered, copied) match set; every further driving row carrying the
//     same celebrity key reuses the cache instead of re-reading the full
//     match set through the index.
//   - light lane — everything else keeps the existing index-pushdown
//     probe, one charged lookup per driving row.
//
// The cache returns exactly what the lookup would have returned, so the
// output relation (rows and order) is byte-identical to the single-
// strategy plan; only the access counters drop, by (m-1)·(1+matches) per
// heavy key appearing m times in the round's diff. Because the pre-pass
// runs sequentially before any worker fans out and the cache is read-only
// afterwards, the charge totals are byte-identical across OpWorkers
// settings and storage engines for a fixed threshold — the skew axis of
// the differential matrix in internal/ivm pins this under -race. Unlike
// OpWorkers the threshold deliberately changes access counts: it must stay
// invariant across engines and schedules, not across thresholds. 0 (the
// default) disables the machinery entirely: not one statistics call is
// made and every probe takes the index.

package algebra

import (
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// heavyLookup consults the join's heavy-lane cache for the probe key
// currently in pr.valsBuf. ok=false means the key is light (or the heavy
// lane is off) and the caller must run the charged probe. The returned
// rows are shared read-only cache state: callers must not mutate them
// (they don't — probe results are only read and copied into outputs).
func (c *cJoin) heavyLookup(pr *cProbe) ([]rel.Tuple, bool) {
	if c.heavy == nil {
		return nil, false
	}
	pr.keyBuf = rel.AppendTupleKey(pr.keyBuf[:0], pr.valsBuf)
	rows, ok := c.heavy[string(pr.keyBuf)]
	return rows, ok
}

// prepareHeavy builds the heavy-lane cache for a probe-join round. It
// resets any cache left from a previous run, reads the stored side's
// heavy-key statistics (uncharged), and probes each distinct heavy key
// present in the driving rows exactly once, in first-appearance order, on
// the step's main counter — the only charged accesses the heavy lane
// performs this round.
func (c *cJoin) prepareHeavy(thresh int, t *storage.Handle, driving *rel.Batch) error {
	c.heavy = nil
	if thresh <= 0 || driving.Len() == 0 {
		return nil
	}
	heavy, err := t.HeavyKeys(c.probe.st, c.probe.prep.Attrs(), thresh)
	if err != nil || len(heavy) == 0 {
		return err
	}
	set := make(map[string]struct{}, len(heavy))
	for _, k := range heavy {
		set[k.Key] = struct{}{}
	}
	idx, _ := c.drive()
	pr := c.probe
	var cache map[string][]rel.Tuple
	var buf []byte
	for i, n := 0, driving.Len(); i < n; i++ {
		if !pr.fill(driving, idx, i) {
			continue
		}
		buf = rel.AppendTupleKey(buf[:0], pr.valsBuf)
		if _, isHeavy := set[string(buf)]; !isHeavy {
			continue
		}
		if _, done := cache[string(buf)]; done {
			continue
		}
		rows, err := pr.lookup(t)
		if err != nil {
			return err
		}
		if cache == nil {
			cache = make(map[string][]rel.Tuple)
		}
		// pr.lookup returns probe scratch; the cache outlives the next call.
		cache[string(buf)] = append([]rel.Tuple(nil), rows...)
	}
	c.heavy = cache
	return nil
}
