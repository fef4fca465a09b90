package storagetest

import (
	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// Sharded returns an engine that splits every table into n key-partitioned
// rel.Tables (n < 1 is treated as 1). A row lives in the shard a stable hash
// of its encoded key picks, so keyed operations touch one shard while scans,
// probes and predicate writes visit every shard in shard order and merge.
// Since the shards partition the rows, every merged result — row sets,
// match counts, (p, n) statistics — equals the single-table one, and so do
// the charges Handle derives from them; only the order of rows differs from
// mem's. Tests run plans, kernels and maintenance on it to check that
// nothing above the boundary depends on one table's row order.
func Sharded(n int) storage.Engine {
	if n < 1 {
		n = 1
	}
	return shardedEngine(n)
}

var _ storage.Table = (*shardedTable)(nil)

type shardedEngine int

// Create implements storage.Engine.
func (e shardedEngine) Create(name string, schema rel.Schema) (storage.Table, error) {
	shards := make([]*rel.Table, e)
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
	return &shardedTable{keyIdx: keyIdx, shards: shards}, nil
}

// shardedTable is a storage.Table over key-partitioned rel.Tables.
type shardedTable struct {
	keyIdx []int
	shards []*rel.Table
}

// shardOf picks the shard of an encoded key by FNV-1a: stable across runs,
// so a replayed workload is routed identically.
func (t *shardedTable) shardOf(key string) *rel.Table {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return t.shards[h%uint32(len(t.shards))]
}

func (t *shardedTable) forKey(key []rel.Value) *rel.Table { return t.shardOf(rel.TupleKey(key)) }

// forRow routes the row whose key is in keyCols.
func (t *shardedTable) forRow(row rel.Tuple, keyCols []int) *rel.Table {
	return t.shardOf(rel.KeyOf(row, keyCols))
}

// Name implements storage.Table.
func (t *shardedTable) Name() string { return t.shards[0].Name() }

// Schema implements storage.Table.
func (t *shardedTable) Schema() rel.Schema { return t.shards[0].Schema() }

// InEpoch implements storage.Table. Epoch state only changes through the
// shardedTable, so the shards agree; shard 0 answers.
func (t *shardedTable) InEpoch() bool { return t.shards[0].InEpoch() }

// Len implements storage.Table.
func (t *shardedTable) Len() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.Len()
	}
	return n
}

// StateLen implements storage.Table.
func (t *shardedTable) StateLen(s rel.State) int {
	n := 0
	for _, sh := range t.shards {
		n += sh.StateLen(s)
	}
	return n
}

// Rows implements storage.Table: shard contents concatenated in shard order.
func (t *shardedTable) Rows(s rel.State) []rel.Tuple { return t.Scan(s) }

// Scan implements storage.Table: shard scans concatenated in shard order.
func (t *shardedTable) Scan(s rel.State) []rel.Tuple {
	var out []rel.Tuple
	for _, sh := range t.shards {
		out = append(out, sh.Scan(s)...)
	}
	return out
}

// Relation implements storage.Table.
func (t *shardedTable) Relation(s rel.State) *rel.Relation {
	r := rel.NewRelation(t.Schema())
	r.Tuples = t.Scan(s)
	return r
}

// Get implements storage.Table.
func (t *shardedTable) Get(s rel.State, key []rel.Value) (rel.Tuple, bool) {
	return t.forKey(key).Get(s, key)
}

// Lookup implements storage.Table: per-shard probes in shard order.
func (t *shardedTable) Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error) {
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

// LookupInto implements storage.Table: per-shard probes in shard order.
func (t *shardedTable) LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, out []rel.Tuple) ([]rel.Tuple, error) {
	var err error
	for _, sh := range t.shards {
		if out, err = sh.LookupInto(s, pl, vals, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// IndexCard implements storage.Table: (p, n) summed over the shards.
func (t *shardedTable) IndexCard(s rel.State, attrs []string, vals []rel.Value) (p, n int, err error) {
	for _, sh := range t.shards {
		sp, sn, err := sh.IndexCard(s, attrs, vals)
		if err != nil {
			return 0, 0, err
		}
		p, n = p+sp, n+sn
	}
	return p, n, nil
}

// Insert implements storage.Table.
func (t *shardedTable) Insert(row rel.Tuple) error {
	_, err := t.InsertRow(row)
	return err
}

// InsertRow implements storage.Table. A row of the wrong width cannot be
// routed; shard 0 reports the schema error.
func (t *shardedTable) InsertRow(row rel.Tuple) (rel.Tuple, error) {
	if len(row) != len(t.Schema().Attrs) {
		return t.shards[0].InsertRow(row)
	}
	return t.forRow(row, t.keyIdx).InsertRow(row)
}

// InsertIfAbsent implements storage.Table: each run of consecutive rows
// routed to one shard is one instance there, so rows are applied, and
// reported to fn, in diff order.
func (t *shardedTable) InsertIfAbsent(b *rel.Batch, src []int, fn func(post rel.Tuple)) (probed, inserted int, err error) {
	if len(src) != len(t.Schema().Attrs) {
		return t.shards[0].InsertIfAbsent(b, src, fn) // reports the width error
	}
	keySrc := make([]int, len(t.keyIdx))
	for k, j := range t.keyIdx {
		keySrc[k] = src[j]
	}
	var row rel.Tuple
	shardOf := func(i int) *rel.Table {
		row = b.Row(i, row)
		return t.forRow(row, keySrc)
	}
	for lo, hi := 0, 0; lo < b.N && err == nil; lo = hi {
		sh := shardOf(lo)
		for hi = lo + 1; hi < b.N && shardOf(hi) == sh; hi++ {
		}
		p, n, e := sh.InsertIfAbsent(b.Slice(lo, hi), src, fn)
		probed, inserted, err = probed+p, inserted+n, e
	}
	return probed, inserted, err
}

// DeleteKey implements storage.Table.
func (t *shardedTable) DeleteKey(key []rel.Value) bool { return t.DeleteRow(key) != nil }

// DeleteRow implements storage.Table.
func (t *shardedTable) DeleteRow(key []rel.Value) rel.Tuple { return t.forKey(key).DeleteRow(key) }

// UpdateKey implements storage.Table.
func (t *shardedTable) UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (pre, post rel.Tuple, err error) {
	return t.forKey(key).UpdateKey(key, setAttrs, setVals)
}

// DeleteWhere implements storage.Table: each diff row visits every shard in
// shard order — the order Scan returns rows in — and the counts sum. Index
// errors depend on the schema only, so shard 0 fails on the first row,
// before any shard changes, or no shard fails.
func (t *shardedTable) DeleteWhere(attrs []string, b *rel.Batch, cols []int, fn func(pre rel.Tuple)) (probed, deleted int, err error) {
	return t.fanOut(b.N, func(sh *rel.Table, i int) (int, int, error) {
		return sh.DeleteWhere(attrs, b.Slice(i, i+1), cols, fn)
	})
}

// UpdateWhere implements storage.Table like DeleteWhere; its validation
// errors depend on the schema only too.
func (t *shardedTable) UpdateWhere(attrs []string, b *rel.Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post rel.Tuple)) (probed, updated int, err error) {
	return t.fanOut(b.N, func(sh *rel.Table, i int) (int, int, error) {
		return sh.UpdateWhere(attrs, b.Slice(i, i+1), cols, setAttrs, setCols, fn)
	})
}

// fanOut applies diff rows 0..n-1, each to every shard in shard order; a row
// every shard probed counts as probed once.
func (t *shardedTable) fanOut(n int, apply func(sh *rel.Table, i int) (int, int, error)) (probed, affected int, err error) {
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

// BeginEpoch implements storage.Table.
func (t *shardedTable) BeginEpoch() { t.each((*rel.Table).BeginEpoch) }

// AdvanceEpoch implements storage.Table, shard by shard: each shard advances
// atomically, the sweep does not; the serving layer's seqlock brackets it.
func (t *shardedTable) AdvanceEpoch() { t.each((*rel.Table).AdvanceEpoch) }

// RollbackEpoch implements storage.Table, shard by shard; no shard's
// pre-state moves, so readers never see the sweep.
func (t *shardedTable) RollbackEpoch() { t.each((*rel.Table).RollbackEpoch) }

// EndEpoch implements storage.Table.
func (t *shardedTable) EndEpoch() { t.each((*rel.Table).EndEpoch) }

func (t *shardedTable) each(f func(*rel.Table)) {
	for _, sh := range t.shards {
		f(sh)
	}
}

// Copy returns a new database on e holding d's tables, in d's creation
// order, each filled with d's rows in d's scan order, and a zero counter.
// The dataset builders build on mem; a test replaces a built dataset's DB
// with Copy(ds.DB, Sharded(n)) to run the same dataset on shards. d must
// have no table with logging enabled: Copy carries over data, not logs.
func Copy(d *db.Database, e storage.Engine) *db.Database {
	out := db.NewWith(e)
	for _, name := range d.TableNames() {
		if d.LoggingEnabled(name) {
			panic("storagetest: Copy of a logged table " + name)
		}
		src, err := d.Table(name)
		if err != nil {
			panic(err)
		}
		dst := out.MustCreateTable(name, src.Schema())
		for _, row := range src.Backend().Scan(rel.StatePost) {
			if err := dst.Insert(row); err != nil {
				panic(err)
			}
		}
	}
	out.Counter().Reset()
	return out
}
