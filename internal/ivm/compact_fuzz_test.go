package ivm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"idivm/internal/db"
	"idivm/internal/rel"
)

// compactSchema is the table FuzzCompactLog writes: a key and two columns.
var compactSchema = rel.NewSchema([]string{"k", "v", "w"}, []string{"k"})

// compactKeys are the keys a history may touch; the last two are Same
// but not KeyEqual, so they must stay two tuples.
var compactKeys = []rel.Value{rel.Int(0), rel.Int(1), rel.Int(1 << 53), rel.Int(1<<53 + 1)}

// compactValues are the column values of a history: the edges of Same
// (NULL, ±0, Int and Float of one number, NaN, 2^53 and its neighbour)
// and two strings. A byte picks one modulo their count.
var compactValues = []rel.Value{
	rel.Null(), rel.Int(0), rel.Float(math.Copysign(0, -1)), rel.Int(1), rel.Float(1),
	rel.Float(math.NaN()), rel.Int(1 << 53), rel.Int(1<<53 + 1), rel.Float(1 << 53),
	rel.String("a"), rel.String("b"),
}

// compactSchemas are the i-diff schemas PopulateInstances fills: one insert
// and one delete schema, and an update schema per nonempty set of columns.
var compactSchemas = []DiffSchema{
	{Type: DiffInsert, Rel: "t", IDs: []string{"k"}, Post: []string{"v", "w"}},
	{Type: DiffDelete, Rel: "t", IDs: []string{"k"}, Pre: []string{"v", "w"}},
	{Type: DiffUpdate, Rel: "t", IDs: []string{"k"}, Pre: []string{"v"}, Post: []string{"v"}},
	{Type: DiffUpdate, Rel: "t", IDs: []string{"k"}, Pre: []string{"w"}, Post: []string{"w"}},
	{Type: DiffUpdate, Rel: "t", IDs: []string{"k"}, Pre: []string{"v", "w"}, Post: []string{"v", "w"}},
}

// maxCompactOps bounds a history; compaction corners need few operations.
const maxCompactOps = 64

// decodeHistory turns bytes into a start state and a valid history over
// compactSchema. The first byte's low bits say which keys start live, and
// two bytes give each live key's v and w. Then every three bytes are one
// modification of key b0 % 4: an insert when the key is not live, else a
// delete when bit 2 of b0 is set and an update otherwise; b1 and b2 pick
// the new image's v and w. It returns the start and end states by key
// encoding and the modification log.
func decodeHistory(data []byte) (start, end map[string]rel.Tuple, log []db.Modification) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func(b byte) rel.Value { return compactValues[int(b)%len(compactValues)] }
	keyIdx := compactSchema.KeyIndices()
	start, end = map[string]rel.Tuple{}, map[string]rel.Tuple{}
	live := next()
	for i, k := range compactKeys {
		if live>>i&1 == 1 {
			row := rel.Tuple{k, val(next()), val(next())}
			start[rel.KeyOf(row, keyIdx)] = row
			end[rel.KeyOf(row, keyIdx)] = row
		}
	}
	for ops := 0; len(data) > 0 && ops < maxCompactOps; ops++ {
		b0, b1, b2 := next(), next(), next()
		k := compactKeys[int(b0)%len(compactKeys)]
		row := rel.Tuple{k, val(b1), val(b2)}
		key := rel.KeyOf(row, keyIdx)
		pre, ok := end[key]
		switch {
		case !ok:
			log = append(log, db.Modification{Kind: db.ModInsert, Table: "t", Post: row})
			end[key] = row
		case b0&4 != 0:
			log = append(log, db.Modification{Kind: db.ModDelete, Table: "t", Pre: pre})
			delete(end, key)
		default:
			log = append(log, db.Modification{Kind: db.ModUpdate, Table: "t", Pre: pre, Post: row})
			end[key] = row
		}
	}
	return start, end, log
}

// checkCompaction compacts the history and checks the net change against
// it: replayed over the start state it yields the end state (tuples
// compared by TupleKey), no key changes twice, no kept update is a no-op
// under KeyEqual, and PopulateInstances files an update under an update
// schema exactly when one of the schema's post columns changed under
// KeyEqual.
func checkCompaction(t *testing.T, start, end map[string]rel.Tuple, log []db.Modification) {
	t.Helper()
	changes, err := CompactLog(log, func(string) (rel.Schema, error) { return compactSchema, nil })
	if err != nil {
		t.Fatalf("CompactLog: %v", err)
	}
	nc := changes["t"]
	if nc == nil {
		nc = &NetChange{Table: "t", Schema: compactSchema}
	}
	keyIdx := compactSchema.KeyIndices()
	replayed := make(map[string]rel.Tuple, len(start))
	for k, row := range start {
		replayed[k] = row
	}
	seen := map[string]bool{}
	change := func(row rel.Tuple) string {
		key := rel.KeyOf(row, keyIdx)
		if seen[key] {
			t.Fatalf("key of %v changes more than once in %+v", row, nc)
		}
		seen[key] = true
		return key
	}
	expect := func(key string, pre rel.Tuple) {
		if cur, ok := replayed[key]; !ok || rel.TupleKey(cur) != rel.TupleKey(pre) {
			t.Fatalf("net change with pre-image %v over %v", pre, cur)
		}
	}
	for _, row := range nc.Inserts {
		key := change(row)
		if cur, ok := replayed[key]; ok {
			t.Fatalf("net insert of %v over live %v", row, cur)
		}
		replayed[key] = row
	}
	for _, row := range nc.Deletes {
		key := change(row)
		expect(key, row)
		delete(replayed, key)
	}
	for _, up := range nc.Updates {
		key := change(up.Pre)
		expect(key, up.Pre)
		if up.Pre.KeyEqual(up.Post) {
			t.Fatalf("no-op update %v → %v kept", up.Pre, up.Post)
		}
		replayed[key] = up.Post
	}
	if len(replayed) != len(end) {
		t.Fatalf("replay has %d tuples, want %d: %v vs %v", len(replayed), len(end), replayed, end)
	}
	for key, want := range end {
		if got, ok := replayed[key]; !ok || rel.TupleKey(got) != rel.TupleKey(want) {
			t.Fatalf("replay holds %v, want %v", got, want)
		}
	}

	insts, err := PopulateInstances(nc, compactSchemas)
	if err != nil {
		t.Fatalf("PopulateInstances: %v", err)
	}
	for _, ds := range compactSchemas {
		if ds.Type != DiffUpdate {
			continue
		}
		filed := map[string]bool{}
		for _, inst := range insts {
			if inst.Schema.Equal(ds) {
				for _, row := range inst.Rows.Tuples {
					filed[rel.KeyOf(row, []int{0})] = true // a diff row leads with its ID
				}
			}
		}
		for _, up := range nc.Updates {
			changed := false
			for _, a := range ds.Post {
				j := compactSchema.Index(a)
				changed = changed || !up.Pre[j].KeyEqual(up.Post[j])
			}
			if filed[rel.KeyOf(up.Pre, keyIdx)] != changed {
				t.Fatalf("update %v → %v filed under %s: %v, want %v", up.Pre, up.Post, ds, !changed, changed)
			}
		}
	}
}

// reusedCompactor is the long-lived compactor of FuzzCompactLog: it carries
// its buffers from one input to the next, as a System's does from round to
// round.
var reusedCompactor compactor

// checkReusedCompactor compacts log with reusedCompactor after two other
// compactions — a different history over the same table, then one that fails
// midway (the different history over a second table, then a double delete)
// — and checks that its net change equals a fresh CompactLog's, order
// included: nothing one compaction folded leaks into the next.
func checkReusedCompactor(t *testing.T, data []byte, log []db.Modification) {
	t.Helper()
	schemaOf := func(string) (rel.Schema, error) { return compactSchema, nil }
	rotated := append(append([]byte(nil), data[len(data)/2:]...), data[:len(data)/2]...)
	_, _, other := decodeHistory(rotated)
	failing := make([]db.Modification, 0, len(other)+2)
	for _, m := range other {
		m.Table = "u"
		failing = append(failing, m)
	}
	gone := rel.Tuple{rel.Int(99), rel.Null(), rel.Null()}
	failing = append(failing, db.Modification{Kind: db.ModDelete, Table: "t", Pre: gone},
		db.Modification{Kind: db.ModDelete, Table: "t", Pre: gone})

	c := &reusedCompactor
	if _, err := c.compact(other, schemaOf); err != nil {
		t.Fatalf("compacting the rotated history: %v", err)
	}
	c.reset()
	if _, err := c.compact(failing, schemaOf); err == nil {
		t.Fatal("a double delete compacted without an error")
	}
	c.reset()
	tables, err := c.compact(log, schemaOf)
	defer c.reset()
	if err != nil {
		t.Fatalf("reused compactor: %v", err)
	}
	fresh, err := CompactLog(log, schemaOf)
	if err != nil {
		t.Fatalf("CompactLog: %v", err)
	}
	want := fresh["t"]
	if want == nil {
		want = &NetChange{Table: "t", Schema: compactSchema}
	}
	var got *NetChange
	for _, a := range tables {
		if a.nc.Table != "t" {
			t.Fatalf("reused compactor returned table %q, the log has only t", a.nc.Table)
		}
		got = &a.nc
	}
	if got == nil {
		if len(log) == 0 {
			return
		}
		t.Fatal("reused compactor returned no table for a non-empty log")
	}
	render := func(nc *NetChange) string {
		var b strings.Builder
		for _, row := range nc.Inserts {
			fmt.Fprintf(&b, "+%s ", rel.TupleKey(row))
		}
		for _, row := range nc.Deletes {
			fmt.Fprintf(&b, "-%s ", rel.TupleKey(row))
		}
		for _, up := range nc.Updates {
			fmt.Fprintf(&b, "u%s→%s ", rel.TupleKey(up.Pre), rel.TupleKey(up.Post))
		}
		return b.String()
	}
	if g, w := render(got), render(want); g != w {
		t.Fatalf("reused compactor's net change differs from a fresh one's:\n got %s\nwant %s", g, w)
	}
}

// FuzzCompactLog decodes the input as a start state and a history of
// inserts, updates and deletes over a keyed table whose values sit at the
// edges of Value.Same (decodeHistory), and checks CompactLog and
// PopulateInstances against it (checkCompaction), and a long-lived compactor
// against a fresh one (checkReusedCompactor). The corpus under
// testdata/fuzz/FuzzCompactLog holds the corners that used to be dropped
// as no-ops because they compared through float64, and histories whose
// rotation touches keys, or fails on rows, the history itself does not.
func FuzzCompactLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		start, end, log := decodeHistory(data)
		checkCompaction(t, start, end, log)
		checkReusedCompactor(t, data, log)
	})
}
