// Package epochtest is the model-based conformance driver for table
// epochs, in the style of testing/fstest: it runs a program of writes and
// epoch transitions against a table and against a naive model that
// snapshots by full copy — the implementation rel.Table had before the
// undo overlay — and compares every read the table offers, in both states,
// after every operation. Only tests import it: internal/rel drives it from
// random programs and from the FuzzTableEpoch target, and the storage
// conformance suite runs the same programs on every engine.
package epochtest

import (
	"fmt"
	"math/rand"
	"testing"

	"idivm/internal/rel"
)

// Table is the part of the storage.Table contract a program exercises.
type Table interface {
	Len() int
	Rows(s rel.State) []rel.Tuple
	Scan(s rel.State) []rel.Tuple
	Parts() int
	ScanPart(s rel.State, i int) []rel.Tuple
	Relation(s rel.State) *rel.Relation
	Get(s rel.State, key []rel.Value) (rel.Tuple, bool)
	Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error)
	LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, out []rel.Tuple) ([]rel.Tuple, error)
	IndexCard(s rel.State, attrs []string, vals []rel.Value) (p, n int, err error)

	Insert(row rel.Tuple) error
	InsertIfAbsent(row rel.Tuple) (bool, error)
	DeleteKey(key []rel.Value) bool
	DeleteWhere(attrs []string, vals []rel.Value, fn func(pre rel.Tuple)) (int, error)
	UpdateWhere(attrs []string, vals []rel.Value, setAttrs []string, setVals []rel.Value, fn func(pre, post rel.Tuple)) (int, error)
	UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (bool, error)

	BeginEpoch()
	AdvanceEpoch()
	EndEpoch()
	InEpoch() bool
}

// Schema is the schema every program runs on: key k, a low-cardinality
// group column g that programs move rows between, and a payload column v.
func Schema() rel.Schema {
	return rel.NewSchema([]string{"k", "g", "v"}, []string{"k"})
}

// Value domains. They are small on purpose: programs of a few dozen
// operations then revisit keys, refill vacated positions and move rows in
// and out of the same index buckets.
const (
	numKeys   = 12
	numGroups = 3
	numVals   = 3
)

// Operation codes. An operation is OpSize bytes: the code (mod numOps) and
// three operands, each reduced modulo its domain.
const (
	opInsert         = iota // k g v
	opInsertIfAbsent        // k g v
	opDeleteKey             // k
	opDeleteWhere           // g
	opUpdateWhereVal        // g → v' : payload update through the g index
	opUpdateWhereGrp        // g → g' : moves rows between g buckets
	opUpdateKey             // k → g' v'
	opUpdateWhereKey        // k → v' : UpdateWhere over the primary-key attributes
	opDeleteWhereKey        // k : DeleteWhere over the primary-key attributes
	opBegin
	opAdvance
	opEnd
	numOps

	OpSize = 4
)

// prog assembles a program from (code, a, b, c) quadruples.
func prog(ops ...[4]byte) []byte {
	var p []byte
	for _, o := range ops {
		p = append(p, o[:]...)
	}
	return p
}

// Seeds returns the hand-written programs behind the fuzz corpus: each
// reaches a corner the overlay has a dedicated code path for.
func Seeds() map[string][]byte {
	fill := func(n byte) [][4]byte { // rows k=0..n-1 at positions 0..n-1, g = k mod 3
		var ops [][4]byte
		for k := byte(0); k < n; k++ {
			ops = append(ops, [4]byte{opInsert, k, k % numGroups, 0})
		}
		return ops
	}
	with := func(base [][4]byte, ops ...[4]byte) []byte { return prog(append(base, ops...)...) }
	return map[string][]byte{
		"insert-then-delete-in-one-epoch": with(fill(3),
			[4]byte{opBegin}, [4]byte{opInsert, 7, 1, 1}, [4]byte{opDeleteKey, 7}, [4]byte{opEnd}),
		"delete-last-row": with(fill(3),
			[4]byte{opBegin}, [4]byte{opDeleteKey, 2}, [4]byte{opDeleteKey, 1}, [4]byte{opDeleteKey, 0}, [4]byte{opAdvance}),
		"swap-remove-moves-dirty-row": with(fill(5),
			[4]byte{opBegin}, [4]byte{opUpdateKey, 4, 2, 2}, [4]byte{opDeleteKey, 1}, [4]byte{opDeleteKey, 0}, [4]byte{opAdvance}, [4]byte{opDeleteKey, 4}),
		"indexed-column-there-and-back": with(fill(4),
			[4]byte{opBegin}, [4]byte{opUpdateWhereGrp, 1, 2}, [4]byte{opUpdateKey, 1, 1, 0}, [4]byte{opUpdateWhereGrp, 2, 1}, [4]byte{opEnd}),
		"epoch-with-zero-writes": with(fill(3),
			[4]byte{opBegin}, [4]byte{opAdvance}, [4]byte{opAdvance}, [4]byte{opEnd}, [4]byte{opUpdateKey, 0, 1, 1}),
		"refill-vacated-positions": with(fill(4),
			[4]byte{opBegin}, [4]byte{opDeleteWhere, 0}, [4]byte{opInsertIfAbsent, 9, 0, 1}, [4]byte{opInsert, 10, 0, 2}, [4]byte{opInsert, 11, 1, 2}, [4]byte{opAdvance}, [4]byte{opDeleteWhere, 0}),
		"writes-outside-any-epoch": with(fill(4),
			[4]byte{opDeleteKey, 0}, [4]byte{opBegin}, [4]byte{opEnd}, [4]byte{opUpdateWhereVal, 1, 2}, [4]byte{opBegin}, [4]byte{opUpdateWhereVal, 1, 1}),
		// Stable row ids: a removal frees an id that a later insert reuses.
		"reuse-freed-id-in-one-epoch": with(fill(4),
			[4]byte{opBegin}, [4]byte{opDeleteKey, 1}, [4]byte{opInsert, 8, 1, 2}, [4]byte{opDeleteKey, 8}, [4]byte{opInsertIfAbsent, 1, 2, 1}, [4]byte{opAdvance}, [4]byte{opDeleteWhere, 2}),
		"delete-where-bucket-holds-last-positions": with(fill(6), // g=2 is k=2,5: position 5 is the last
			[4]byte{opBegin}, [4]byte{opInsert, 8, 2, 1}, [4]byte{opDeleteWhere, 2}, [4]byte{opInsert, 9, 2, 0}, [4]byte{opDeleteWhere, 2}, [4]byte{opEnd}, [4]byte{opDeleteWhere, 1}),
		"delete-everything-then-refill": with(fill(5),
			[4]byte{opBegin}, [4]byte{opDeleteWhere, 0}, [4]byte{opDeleteWhere, 1}, [4]byte{opDeleteWhere, 2},
			[4]byte{opInsert, 3, 0, 1}, [4]byte{opInsert, 0, 1, 1}, [4]byte{opInsert, 7, 2, 1}, [4]byte{opAdvance},
			[4]byte{opDeleteWhereKey, 0}, [4]byte{opDeleteWhere, 0}, [4]byte{opDeleteWhere, 2}, [4]byte{opInsert, 4, 1, 2}),
		"update-where-over-the-key": with(fill(4),
			[4]byte{opUpdateWhereKey, 2, 1}, [4]byte{opBegin}, [4]byte{opUpdateWhereKey, 2, 2}, [4]byte{opUpdateWhereKey, 9, 1}, [4]byte{opDeleteWhereKey, 2}, [4]byte{opUpdateWhereKey, 3, 0}, [4]byte{opAdvance}, [4]byte{opDeleteWhereKey, 3}),
		"indexed-column-away-and-back-by-key": with(fill(4),
			[4]byte{opBegin}, [4]byte{opUpdateKey, 1, 2, 0}, [4]byte{opUpdateKey, 1, 1, 0}, [4]byte{opAdvance}, [4]byte{opUpdateKey, 1, 0, 1}, [4]byte{opDeleteWhere, 1}, [4]byte{opUpdateKey, 1, 1, 1}),
	}
}

// RandomProg draws a program of n operations. Epoch transitions are a
// fifth of the operations, so epochs stay open across several writes.
func RandomProg(rng *rand.Rand, n int) []byte {
	p := make([]byte, 0, n*OpSize)
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(opBegin))
		if rng.Intn(5) == 0 {
			op = opBegin + byte(rng.Intn(numOps-opBegin))
		}
		p = append(p, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return p
}

// model is the oracle: a keyed map, and a full copy of it taken at every
// epoch boundary.
type model struct {
	post    map[int64]rel.Tuple
	pre     map[int64]rel.Tuple
	inEpoch bool
}

func (m *model) state(s rel.State) map[int64]rel.Tuple {
	if s == rel.StatePre && m.inEpoch {
		return m.pre
	}
	return m.post
}

func (m *model) snapshot() {
	m.inEpoch = true
	m.pre = make(map[int64]rel.Tuple, len(m.post))
	for k, r := range m.post {
		m.pre[k] = r
	}
}

func (m *model) matching(s rel.State, pred func(rel.Tuple) bool) []rel.Tuple {
	var out []rel.Tuple
	for _, r := range m.state(s) {
		if pred(r) {
			out = append(out, r)
		}
	}
	return rel.SortTuples(out)
}

func (m *model) update(k int64, cols []int, vals []rel.Value) {
	nr := m.post[k].Clone()
	for i, j := range cols {
		nr[j] = vals[i]
	}
	m.post[k] = nr
}

var (
	attrsG  = []string{"g"}
	attrsGV = []string{"g", "v"}
	attrsK  = []string{"k"}
	states  = []rel.State{rel.StatePost, rel.StatePre}
)

// maxRetained bounds how many pre-state scan results Run holds on to: enough
// to span several epochs of a program, without making a long program
// quadratic.
const maxRetained = 16

// retained is a pre-state scan result kept across later operations,
// together with a copy of what it held when it was handed out.
type retained struct {
	rows, want []rel.Tuple
}

// Run executes program (a whole number of OpSize-byte operations; a
// trailing fragment is ignored) on tab, which must be empty with Schema,
// and on the model, failing t at the first observable difference.
func Run(t testing.TB, tab Table, program []byte) {
	t.Helper()
	m := &model{post: map[int64]rel.Tuple{}}
	var kept []retained
	for pc := 0; pc+OpSize <= len(program); pc += OpSize {
		op, a, b, c := program[pc]%numOps, program[pc+1], program[pc+2], program[pc+3]
		desc := step(t, tab, m, op, a, b, c)
		where := fmt.Sprintf("op %d (%s)", pc/OpSize, desc)
		check(t, tab, m, where)
		// A table that can check its own structural invariants (rel.Table
		// does, in its package's tests) is asked to after every operation.
		if c, ok := tab.(interface{ CheckInvariants() error }); ok {
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", where, err)
			}
		}
		for _, k := range kept {
			if !sameTuples(k.rows, k.want) {
				t.Fatalf("%s: a retained Scan(StatePre) result was modified by a later write", where)
			}
		}
		if m.inEpoch {
			rows := tab.Scan(rel.StatePre)
			kept = append(kept, retained{rows: rows, want: append([]rel.Tuple(nil), rows...)})
			if len(kept) > maxRetained {
				kept = kept[1:]
			}
		}
		if t.Failed() {
			return
		}
	}
}

// step applies one operation to both sides and compares its result.
func step(t testing.TB, tab Table, m *model, op, a, b, c byte) string {
	t.Helper()
	k := int64(a % numKeys)
	key := []rel.Value{rel.Int(k)}
	switch op {
	case opInsert, opInsertIfAbsent:
		row := rel.Tuple{rel.Int(k), rel.Int(int64(b % numGroups)), rel.Int(int64(c % numVals))}
		old, exists := m.post[k]
		if op == opInsert {
			err := tab.Insert(row)
			if (err != nil) != exists {
				t.Errorf("Insert(%v): err=%v, model has key: %v", row, err, exists)
			}
		} else {
			ins, err := tab.InsertIfAbsent(row)
			wantErr := exists && !old.Equal(row)
			if ins != !exists || (err != nil) != wantErr {
				t.Errorf("InsertIfAbsent(%v) = %v, %v; model has %v", row, ins, err, old)
			}
		}
		if !exists {
			m.post[k] = row
		}
		return fmt.Sprintf("insert %v", row)
	case opDeleteKey:
		_, exists := m.post[k]
		if got := tab.DeleteKey(key); got != exists {
			t.Errorf("DeleteKey(%d) = %v, model has key: %v", k, got, exists)
		}
		delete(m.post, k)
		return fmt.Sprintf("delete k=%d", k)
	case opDeleteWhere:
		g := rel.Int(int64(a % numGroups))
		victims := m.matching(rel.StatePost, func(r rel.Tuple) bool { return r[1].Same(g) })
		var seen []rel.Tuple
		n, err := tab.DeleteWhere(attrsG, []rel.Value{g}, func(pre rel.Tuple) { seen = append(seen, pre) })
		if err != nil || n != len(victims) || !sameSet(seen, victims) {
			t.Errorf("DeleteWhere(g=%v) = %d, %v, fn saw %v; model removes %v", g, n, err, seen, victims)
		}
		for _, r := range victims {
			delete(m.post, r[0].AsInt())
		}
		return fmt.Sprintf("delete where g=%v", g)
	case opUpdateWhereVal, opUpdateWhereGrp:
		g := rel.Int(int64(a % numGroups))
		col, attr, val := 2, "v", rel.Int(int64(b%numVals))
		if op == opUpdateWhereGrp {
			col, attr, val = 1, "g", rel.Int(int64(b%numGroups))
		}
		hits := m.matching(rel.StatePost, func(r rel.Tuple) bool { return r[1].Same(g) })
		var seen []rel.Tuple
		n, err := tab.UpdateWhere(attrsG, []rel.Value{g}, []string{attr}, []rel.Value{val}, func(pre, post rel.Tuple) {
			if !post[col].Same(val) {
				t.Errorf("UpdateWhere(g=%v, %s=%v): fn saw post-image %v of %v", g, attr, val, post, pre)
			}
			seen = append(seen, pre)
		})
		if err != nil || n != len(hits) || !sameSet(seen, hits) {
			t.Errorf("UpdateWhere(g=%v, %s=%v) = %d, %v, fn saw %v; model updates %v", g, attr, val, n, err, seen, hits)
		}
		for _, r := range hits {
			m.update(r[0].AsInt(), []int{col}, []rel.Value{val})
		}
		return fmt.Sprintf("update where g=%v set %s=%v", g, attr, val)
	case opUpdateKey:
		vals := []rel.Value{rel.Int(int64(b % numGroups)), rel.Int(int64(c % numVals))}
		_, exists := m.post[k]
		ok, err := tab.UpdateKey(key, []string{"g", "v"}, vals)
		if err != nil || ok != exists {
			t.Errorf("UpdateKey(%d) = %v, %v; model has key: %v", k, ok, err, exists)
		}
		if exists {
			m.update(k, []int{1, 2}, vals)
		}
		return fmt.Sprintf("update k=%d set g,v=%v", k, vals)
	case opUpdateWhereKey:
		val := rel.Int(int64(b % numVals))
		_, exists := m.post[k]
		n, err := tab.UpdateWhere(attrsK, key, []string{"v"}, []rel.Value{val}, nil)
		if err != nil || (n == 1) != exists || n > 1 {
			t.Errorf("UpdateWhere(k=%d, v=%v) = %d, %v; model has key: %v", k, val, n, err, exists)
		}
		if exists {
			m.update(k, []int{2}, []rel.Value{val})
		}
		return fmt.Sprintf("update where k=%d set v=%v", k, val)
	case opDeleteWhereKey:
		_, exists := m.post[k]
		n, err := tab.DeleteWhere(attrsK, key, nil)
		if err != nil || (n == 1) != exists || n > 1 {
			t.Errorf("DeleteWhere(k=%d) = %d, %v; model has key: %v", k, n, err, exists)
		}
		delete(m.post, k)
		return fmt.Sprintf("delete where k=%d", k)
	case opBegin:
		tab.BeginEpoch()
		if !m.inEpoch {
			m.snapshot()
		}
		return "begin epoch"
	case opAdvance:
		tab.AdvanceEpoch()
		m.snapshot()
		return "advance epoch"
	default:
		tab.EndEpoch()
		m.inEpoch, m.pre = false, nil
		return "end epoch"
	}
}

// check compares every read the table offers with the model, in both states.
func check(t testing.TB, tab Table, m *model, where string) {
	t.Helper()
	if tab.InEpoch() != m.inEpoch {
		t.Errorf("%s: InEpoch = %v, want %v", where, tab.InEpoch(), m.inEpoch)
	}
	if tab.Len() != len(m.post) {
		t.Errorf("%s: Len = %d; want %d", where, tab.Len(), len(m.post))
	}
	for _, s := range states {
		want := m.state(s)
		all := m.matching(s, func(rel.Tuple) bool { return true })

		var parts []rel.Tuple
		for i := 0; i < tab.Parts(); i++ {
			parts = append(parts, tab.ScanPart(s, i)...)
		}
		if scan := tab.Scan(s); !sameTuples(scan, parts) {
			t.Errorf("%s: %s ScanPart concatenation %v != Scan %v", where, s, parts, scan)
		}
		for name, got := range map[string][]rel.Tuple{"Scan": tab.Scan(s), "Rows": tab.Rows(s), "Relation": tab.Relation(s).Tuples} {
			if !sameSet(got, all) {
				t.Errorf("%s: %s %s = %v, want %v", where, s, name, got, all)
			}
		}

		for k := int64(0); k < numKeys; k++ {
			got, ok := tab.Get(s, []rel.Value{rel.Int(k)})
			w, wok := want[k]
			if ok != wok || (ok && !got.Equal(w)) {
				t.Errorf("%s: %s Get(%d) = %v, %v; want %v, %v", where, s, k, got, ok, w, wok)
			}
			probe(t, tab, m, s, where, attrsK, []rel.Value{rel.Int(k)}, func(r rel.Tuple) bool { return r[0].AsInt() == k })
		}
		for g := int64(0); g < numGroups; g++ {
			probe(t, tab, m, s, where, attrsG, []rel.Value{rel.Int(g)}, func(r rel.Tuple) bool { return r[1].AsInt() == g })
			for v := int64(0); v < numVals; v++ {
				probe(t, tab, m, s, where, attrsGV, []rel.Value{rel.Int(g), rel.Int(v)}, func(r rel.Tuple) bool { return r[1].AsInt() == g && r[2].AsInt() == v })
			}
		}
	}
}

// probe compares Lookup, LookupInto and IndexCard on one
// attribute set and value combination with the model's filtered state.
func probe(t testing.TB, tab Table, m *model, s rel.State, where string, attrs []string, vals []rel.Value, pred func(rel.Tuple) bool) {
	t.Helper()
	want := m.matching(s, pred)
	got, err := tab.Lookup(s, attrs, vals)
	if err != nil || !sameSet(got, want) {
		t.Errorf("%s: %s Lookup(%v=%v) = %v, %v; want %v", where, s, attrs, vals, got, err, want)
	}
	sentinel := rel.Tuple{rel.Int(-1), rel.Int(-1), rel.Int(-1)}
	into, err := tab.LookupInto(s, rel.PrepareLookup(attrs), vals, []rel.Tuple{sentinel})
	if err != nil || len(into) == 0 || !into[0].Equal(sentinel) || !sameSet(into[1:], want) {
		t.Errorf("%s: %s LookupInto(%v=%v) = %v, %v; want the sentinel then %v", where, s, attrs, vals, into, err, want)
	}
	p, n, err := tab.IndexCard(s, attrs, vals)
	if err != nil || p != len(want) || n != len(m.state(s)) {
		t.Errorf("%s: %s IndexCard(%v=%v) = %d, %d, %v; want %d, %d", where, s, attrs, vals, p, n, err, len(want), len(m.state(s)))
	}
}

// sameTuples reports element-wise equality, order included.
func sameTuples(a, b []rel.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameSet compares got, in any order, with the sorted want. Keys are
// unique, so multiset and set equality coincide.
func sameSet(got, want []rel.Tuple) bool {
	return sameTuples(rel.SortTuples(append([]rel.Tuple(nil), got...)), want)
}
