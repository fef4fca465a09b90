package storage

import (
	"fmt"

	"idivm/internal/rel"
)

// shardEngine is the hash-partitioned backend: every table is split into N
// key-partitioned rel.Tables. A row lives in exactly one shard, chosen by
// a stable hash of its encoded primary key, so keyed operations (Get,
// DeleteKey, UpdateKey, Insert, InsertIfAbsent) touch one shard while
// scans, secondary-index probes and predicate writes fan out over all
// shards in a fixed order and merge. Because the shards partition the
// rows, every merged result — row sets, match counts, (p, n) cardinality
// stats — equals the single-table result, which is what keeps planner
// decisions and (through Handle) access counts identical to the default
// engine.
type shardEngine struct{ n int }

// NewSharded returns a hash-partitioned engine with n partitions per
// table (n < 1 is treated as 1).
func NewSharded(n int) Engine {
	if n < 1 {
		n = 1
	}
	return shardEngine{n: n}
}

// Kind implements Engine.
func (e shardEngine) Kind() string { return fmt.Sprintf("sharded/%d", e.n) }

// Create implements Engine.
func (e shardEngine) Create(name string, schema rel.Schema) (Table, error) {
	shards := make([]*rel.Table, e.n)
	for i := range shards {
		t, err := rel.NewTable(name, schema)
		if err != nil {
			return nil, err
		}
		shards[i] = t
	}
	keyIdx, err := schema.Indices(schema.Key)
	if err != nil {
		return nil, err
	}
	return &shardTable{name: name, schema: shards[0].Schema(), keyIdx: keyIdx, shards: shards}, nil
}

// shardTable implements Table over N key-partitioned rel.Tables.
type shardTable struct {
	name   string
	schema rel.Schema
	keyIdx []int
	shards []*rel.Table
}

var _ Table = (*shardTable)(nil)

// ShardOf maps an encoded key to a partition by FNV-1a. The hash must be
// stable across processes: the differential tests replay one workload on
// both engines and rely on deterministic routing. Exported so the parallel
// operator kernels in internal/algebra can key-partition their own work
// (hash-join builds, group-by pre-aggregation) with the identical routing.
func ShardOf(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

func (t *shardTable) forKey(key []rel.Value) *rel.Table {
	return t.shards[ShardOf(rel.TupleKey(key), len(t.shards))]
}

// forRow routes the row whose key is in keyCols.
func (t *shardTable) forRow(row rel.Tuple, keyCols []int) *rel.Table {
	return t.shards[ShardOf(rel.KeyOf(row, keyCols), len(t.shards))]
}

// Name implements Table.
func (t *shardTable) Name() string { return t.name }

// Schema implements Table.
func (t *shardTable) Schema() rel.Schema { return t.schema }

// Len implements Table.
func (t *shardTable) Len() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.Len()
	}
	return n
}

// Rows implements Table: shard contents concatenated in shard order.
func (t *shardTable) Rows(s rel.State) []rel.Tuple {
	return t.Scan(s)
}

// Scan implements Table: shard scans concatenated in shard order.
func (t *shardTable) Scan(s rel.State) []rel.Tuple {
	parts := make([][]rel.Tuple, len(t.shards))
	total := 0
	for i, sh := range t.shards {
		parts[i] = sh.Scan(s)
		total += len(parts[i])
	}
	out := make([]rel.Tuple, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Relation implements Table.
func (t *shardTable) Relation(s rel.State) *rel.Relation {
	r := rel.NewRelation(t.schema)
	for _, sh := range t.shards {
		r.Tuples = append(r.Tuples, sh.Rows(s)...)
	}
	return r
}

// Get implements Table: routed to the owning shard.
func (t *shardTable) Get(s rel.State, key []rel.Value) (rel.Tuple, bool) {
	return t.forKey(key).Get(s, key)
}

// Lookup implements Table: per-shard probes merged in shard order.
func (t *shardTable) Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error) {
	var out []rel.Tuple
	for _, sh := range t.shards {
		rows, err := sh.Lookup(s, attrs, vals)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// LookupInto implements Table: per-shard probes appended in shard order.
func (t *shardTable) LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, out []rel.Tuple) ([]rel.Tuple, error) {
	var err error
	for _, sh := range t.shards {
		if out, err = sh.LookupInto(s, pl, vals, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// IndexCard implements Table: (p, n) summed over the shards. Since the
// shards partition the rows this equals the unpartitioned statistics, so
// both evaluators make the same index-vs-scan decisions on every backend.
func (t *shardTable) IndexCard(s rel.State, attrs []string, vals []rel.Value) (p, n int, err error) {
	for _, sh := range t.shards {
		sp, sn, err := sh.IndexCard(s, attrs, vals)
		if err != nil {
			return 0, 0, err
		}
		p += sp
		n += sn
	}
	return p, n, nil
}

// Insert implements Table: routed to the owning shard. A width-invalid
// row cannot be keyed; shard 0 reports the schema error in that case.
func (t *shardTable) Insert(row rel.Tuple) error {
	if len(row) != len(t.schema.Attrs) {
		return t.shards[0].Insert(row)
	}
	return t.forRow(row, t.keyIdx).Insert(row)
}

// InsertIfAbsent implements Table: every run of consecutive diff tuples whose
// keys route to one shard — which also detects their key conflicts — is one
// instance on that shard, so rows are applied, and reported to fn, in diff
// order.
func (t *shardTable) InsertIfAbsent(rows []rel.Tuple, src []int, fn func(post rel.Tuple)) (probed, inserted int, err error) {
	if len(src) != len(t.schema.Attrs) {
		return t.shards[0].InsertIfAbsent(rows, src, fn) // reports the width error
	}
	keySrc := make([]int, len(t.keyIdx))
	for k, j := range t.keyIdx {
		keySrc[k] = src[j]
	}
	var next *rel.Table // the owner of rows[hi]: each tuple is routed once
	if len(rows) > 0 {
		next = t.forRow(rows[0], keySrc)
	}
	for lo, hi := 0, 0; lo < len(rows) && err == nil; lo = hi {
		sh := next
		for hi = lo + 1; hi < len(rows); hi++ {
			if next = t.forRow(rows[hi], keySrc); next != sh {
				break
			}
		}
		p, n, e := sh.InsertIfAbsent(rows[lo:hi], src, fn)
		probed, inserted, err = probed+p, inserted+n, e
	}
	return probed, inserted, err
}

// DeleteKey implements Table: routed to the owning shard.
func (t *shardTable) DeleteKey(key []rel.Value) bool {
	return t.forKey(key).DeleteKey(key)
}

// DeleteWhere implements Table: each diff tuple is fanned out over all
// shards, in shard order — the order Scan would have returned its rows in,
// and the order fn sees the pre-images in — and removal counts sum. Index
// errors are schema-determined, so shard 0 fails on the first tuple, before
// any shard mutates, or no shard fails.
func (t *shardTable) DeleteWhere(attrs []string, rows []rel.Tuple, cols []int, fn func(pre rel.Tuple)) (probed, deleted int, err error) {
	return t.fanOut(len(rows), func(sh *rel.Table, i int) (int, int, error) {
		return sh.DeleteWhere(attrs, rows[i:i+1], cols, fn)
	})
}

// UpdateWhere implements Table, fanned out like DeleteWhere. Validation
// errors (key-attribute update, unknown attribute, map width) are
// schema-determined and reported before any shard mutates.
func (t *shardTable) UpdateWhere(attrs []string, rows []rel.Tuple, cols []int, setAttrs []string, setCols []int, fn func(pre, post rel.Tuple)) (probed, updated int, err error) {
	return t.fanOut(len(rows), func(sh *rel.Table, i int) (int, int, error) {
		return sh.UpdateWhere(attrs, rows[i:i+1], cols, setAttrs, setCols, fn)
	})
}

// fanOut applies diff tuples 0..n-1, each to every shard in shard order, and
// sums what they affected; a tuple every shard probed counts as probed once.
func (t *shardTable) fanOut(n int, apply func(sh *rel.Table, i int) (int, int, error)) (probed, affected int, err error) {
	for i := 0; i < n; i++ {
		for _, sh := range t.shards {
			_, m, err := apply(sh, i)
			if err != nil {
				return probed, affected, err
			}
			affected += m
		}
		probed++
	}
	return probed, affected, nil
}

// UpdateKey implements Table: routed to the owning shard.
func (t *shardTable) UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (pre, post rel.Tuple, err error) {
	return t.forKey(key).UpdateKey(key, setAttrs, setVals)
}

// BeginEpoch implements Table: every shard freezes its pre-state (O(1) each).
func (t *shardTable) BeginEpoch() {
	for _, sh := range t.shards {
		sh.BeginEpoch()
	}
}

// AdvanceEpoch implements Table. Each shard advances atomically but the
// sweep across shards is not; the serving layer's seqlock brackets it.
func (t *shardTable) AdvanceEpoch() {
	for _, sh := range t.shards {
		sh.AdvanceEpoch()
	}
}

// RollbackEpoch implements Table, shard by shard: no shard's pre-state moves,
// so readers never see the sweep.
func (t *shardTable) RollbackEpoch() {
	for _, sh := range t.shards {
		sh.RollbackEpoch()
	}
}

// EndEpoch implements Table.
func (t *shardTable) EndEpoch() {
	for _, sh := range t.shards {
		sh.EndEpoch()
	}
}

// InEpoch implements Table. Epoch state is only ever toggled through the
// shardTable, so the shards agree; shard 0 answers for all.
func (t *shardTable) InEpoch() bool { return t.shards[0].InEpoch() }
