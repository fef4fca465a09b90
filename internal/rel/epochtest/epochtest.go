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
	Relation(s rel.State) *rel.Relation
	Get(s rel.State, key []rel.Value) (rel.Tuple, bool)
	Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error)
	LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, out []rel.Tuple) ([]rel.Tuple, error)
	IndexCard(s rel.State, attrs []string, vals []rel.Value) (p, n int, err error)

	Insert(row rel.Tuple) error
	DeleteKey(key []rel.Value) bool
	Applier // InsertIfAbsent, DeleteWhere, UpdateWhere: one i-diff instance per call
	UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (pre, post rel.Tuple, err error)

	BeginEpoch()
	AdvanceEpoch()
	EndEpoch()
	RollbackEpoch()
	InEpoch() bool
}

// Applier is the APPLY surface of a stored table (storage.Table spells out the
// contract): rel.Table, every storage backend and the charging storage.Handle
// have it.
type Applier interface {
	InsertIfAbsent(b *rel.Batch, src []int, fn func(post rel.Tuple)) (probed, inserted int, err error)
	DeleteWhere(attrs []string, b *rel.Batch, cols []int, fn func(pre rel.Tuple)) (probed, deleted int, err error)
	UpdateWhere(attrs []string, b *rel.Batch, cols []int, setAttrs []string, setCols []int, fn func(pre, post rel.Tuple)) (probed, updated int, err error)
}

// Diff is the batch of diff rows an APPLY statement reads, built from tuples
// under a schema that names column j "c<j>" (the statements address columns
// by position, never by name).
func Diff(rows []rel.Tuple) *rel.Batch {
	var attrs []string
	if len(rows) > 0 {
		for j := range rows[0] {
			attrs = append(attrs, fmt.Sprintf("c%d", j))
		}
	}
	return rel.FromTuples(rel.NewSchema(attrs, nil), rows)
}

// The one-row conveniences of tests: each is a one-row instance through the
// instance-level method, so it behaves and (through a Handle) is charged so.

// InsertRowIfAbsent inserts row, given in the table's attribute order, unless
// an identical row exists.
func InsertRowIfAbsent(t Applier, row rel.Tuple) (inserted bool, err error) {
	_, n, err := t.InsertIfAbsent(Diff([]rel.Tuple{row}), Cols(0, len(row)), nil)
	return n > 0, err
}

// DeleteRowsWhere removes every row whose attrs equal vals.
func DeleteRowsWhere(t Applier, attrs []string, vals []rel.Value, fn func(pre rel.Tuple)) (int, error) {
	_, n, err := t.DeleteWhere(attrs, Diff([]rel.Tuple{vals}), Cols(0, len(vals)), fn)
	return n, err
}

// UpdateRowsWhere overwrites setAttrs with setVals on every row whose attrs
// equal vals.
func UpdateRowsWhere(t Applier, attrs []string, vals []rel.Value, setAttrs []string, setVals []rel.Value, fn func(pre, post rel.Tuple)) (int, error) {
	k, row := len(vals), append(append(make(rel.Tuple, 0, len(vals)+len(setVals)), vals...), setVals...)
	_, n, err := t.UpdateWhere(attrs, Diff([]rel.Tuple{row}), Cols(0, k), setAttrs, Cols(k, len(row)), fn)
	return n, err
}

// Cols returns the column map lo, lo+1, …, hi-1: the map of a diff whose
// columns already are in the order the statement wants.
func Cols(lo, hi int) []int {
	cols := make([]int, hi-lo)
	for i := range cols {
		cols[i] = lo + i
	}
	return cols
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
	// Multi-tuple i-diff instances (appended, so the codes above — and the
	// checked-in fuzz corpus — keep their meaning). Their diff tuples are
	// wider than what the statement reads and not in the table's attribute
	// order, so the column maps matter.
	opInsertInst // k₀ stride·g₀ n·v : 2–5 tuples (v, k, g), src = 1, 2, 0; a key conflict ends the instance
	opDeleteInst // g₀ stride n : 1–4 tuples (-, g) over g; groups may repeat
	opUpdateInst // g₀|k₀ variant·stride v₀ : 1–4 tuples over g setting v, or over k setting g and v
	// The fourth epoch transition, appended for the same reason.
	opRollback
	numOps
	numWrites = opBegin + opRollback - 1 - opEnd // the write operations: every code but the four epoch ones

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
		// Multi-tuple instances: k=11 is inserted, then k=0 conflicts (v=1 over
		// v=0) and ends the instance with k=1, k=2 untried; a delete instance
		// names one group three times; an update instance moves four rows
		// between g buckets by key, the last onto a row deleted in between.
		"insert-instance-conflict-in-the-middle": with(fill(3),
			[4]byte{opBegin}, [4]byte{opInsertInst, 11, 6, 7}, [4]byte{opInsertInst, 3, 1, 3}, [4]byte{opAdvance}, [4]byte{opInsertInst, 11, 6, 7}),
		"delete-instance-repeats-a-group": with(fill(6),
			[4]byte{opBegin}, [4]byte{opDeleteInst, 0, 0, 2}, [4]byte{opInsertInst, 0, 0, 9}, [4]byte{opAdvance}, [4]byte{opDeleteInst, 1, 1, 1}),
		"update-instance-moves-rows-by-key": with(fill(5),
			[4]byte{opBegin}, [4]byte{opUpdateInst, 1, 3, 9}, [4]byte{opDeleteKey, 4}, [4]byte{opUpdateInst, 1, 3, 10}, [4]byte{opUpdateInst, 0, 2, 4}, [4]byte{opEnd}),
		"indexed-column-away-and-back-by-key": with(fill(4),
			[4]byte{opBegin}, [4]byte{opUpdateKey, 1, 2, 0}, [4]byte{opUpdateKey, 1, 1, 0}, [4]byte{opAdvance}, [4]byte{opUpdateKey, 1, 0, 1}, [4]byte{opDeleteWhere, 1}, [4]byte{opUpdateKey, 1, 1, 1}),
		// Rollback: an update, a swap-remove that moves the updated row, an
		// insert into the vacated position and a move between g buckets are
		// undone; the epoch stays open for more writes, a second rollback
		// after an advance undoes only what followed it, and outside an epoch
		// it does nothing.
		"rollback-every-write-kind": with(fill(5),
			[4]byte{opBegin}, [4]byte{opUpdateKey, 4, 2, 2}, [4]byte{opDeleteKey, 1}, [4]byte{opInsert, 8, 1, 2}, [4]byte{opUpdateWhereGrp, 0, 2},
			[4]byte{opRollback}, [4]byte{opUpdateKey, 0, 1, 1}, [4]byte{opAdvance}, [4]byte{opDeleteWhere, 2}, [4]byte{opRollback},
			[4]byte{opEnd}, [4]byte{opRollback}, [4]byte{opDeleteKey, 3}),
		"rollback-after-emptying-and-refilling": with(fill(4),
			[4]byte{opRollback}, [4]byte{opBegin}, [4]byte{opRollback}, [4]byte{opDeleteWhere, 0}, [4]byte{opDeleteWhere, 1}, [4]byte{opDeleteWhere, 2},
			[4]byte{opInsert, 9, 0, 1}, [4]byte{opInsert, 2, 2, 2}, [4]byte{opRollback}, [4]byte{opInsertIfAbsent, 10, 1, 1}, [4]byte{opDeleteKey, 0}, [4]byte{opRollback}, [4]byte{opAdvance}),
	}
}

// epochOps are the epoch transitions.
var epochOps = []byte{opBegin, opAdvance, opEnd, opRollback}

// RandomProg draws a program of n operations. Epoch transitions are a
// fifth of the operations, so epochs stay open across several writes.
func RandomProg(rng *rand.Rand, n int) []byte {
	p := make([]byte, 0, n*OpSize)
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(numWrites))
		if op >= opBegin {
			op += opEnd + 1 - opBegin
		}
		if rng.Intn(5) == 0 {
			op = epochOps[rng.Intn(len(epochOps))]
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
			ins, err := InsertRowIfAbsent(tab, row)
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
		n, err := DeleteRowsWhere(tab, attrsG, []rel.Value{g}, func(pre rel.Tuple) { seen = append(seen, pre) })
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
		n, err := UpdateRowsWhere(tab, attrsG, []rel.Value{g}, []string{attr}, []rel.Value{val}, func(pre, post rel.Tuple) {
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
		old, exists := m.post[k]
		pre, post, err := tab.UpdateKey(key, []string{"g", "v"}, vals)
		if exists {
			m.update(k, []int{1, 2}, vals)
		}
		if err != nil || (post != nil) != exists || (exists && !(pre.Equal(old) && post.Equal(m.post[k]))) {
			t.Errorf("UpdateKey(%d) = %v, %v, %v; model updates %v to %v", k, pre, post, err, old, m.post[k])
		}
		return fmt.Sprintf("update k=%d set g,v=%v", k, vals)
	case opUpdateWhereKey:
		val := rel.Int(int64(b % numVals))
		_, exists := m.post[k]
		n, err := UpdateRowsWhere(tab, attrsK, key, []string{"v"}, []rel.Value{val}, nil)
		if err != nil || (n == 1) != exists || n > 1 {
			t.Errorf("UpdateWhere(k=%d, v=%v) = %d, %v; model has key: %v", k, val, n, err, exists)
		}
		if exists {
			m.update(k, []int{2}, []rel.Value{val})
		}
		return fmt.Sprintf("update where k=%d set v=%v", k, val)
	case opDeleteWhereKey:
		_, exists := m.post[k]
		n, err := DeleteRowsWhere(tab, attrsK, key, nil)
		if err != nil || (n == 1) != exists || n > 1 {
			t.Errorf("DeleteWhere(k=%d) = %d, %v; model has key: %v", k, n, err, exists)
		}
		delete(m.post, k)
		return fmt.Sprintf("delete where k=%d", k)
	case opInsertInst:
		stride, n := int64(1+b%3), 2+int(c/numVals)%4
		var rows, want []rel.Tuple // the diff tuples; the rows the model stores, in order
		probes, failed := 0, false
		for i := int64(0); i < int64(n); i++ {
			ki, g := (k+i*stride)%numKeys, rel.Int((int64(b/3)+i)%numGroups)
			rows = append(rows, rel.Tuple{rel.Int(int64(c % numVals)), rel.Int(ki), g})
			if failed {
				continue
			}
			probes++
			row := rel.Tuple{rel.Int(ki), g, rows[i][0]}
			if old, exists := m.post[ki]; !exists {
				m.post[ki] = row
				want = append(want, row)
			} else if !old.Equal(row) {
				failed = true
			}
		}
		var seen []rel.Tuple
		p, ins, err := tab.InsertIfAbsent(Diff(rows), []int{1, 2, 0}, func(post rel.Tuple) { seen = append(seen, post) })
		if p != probes || ins != len(want) || (err != nil) != failed || !sameTuples(seen, want) {
			t.Errorf("InsertIfAbsent(%v) = %d, %d, %v, fn saw %v; model probes %d and inserts %v, conflict: %v", rows, p, ins, err, seen, probes, want, failed)
		}
		return fmt.Sprintf("insert instance %v", rows)
	case opDeleteInst:
		var rows []rel.Tuple
		var groups [][]rel.Tuple // the model's victims, per diff tuple
		total := 0
		for i := int64(0); i < 1+int64(c%4); i++ {
			g := rel.Int((int64(a) + i*int64(b%numGroups)) % numGroups)
			rows = append(rows, rel.Tuple{rel.Int(-1), g})
			victims := m.matching(rel.StatePost, func(r rel.Tuple) bool { return r[1].Same(g) })
			for _, r := range victims {
				delete(m.post, r[0].AsInt())
			}
			groups, total = append(groups, victims), total+len(victims)
		}
		var seen []rel.Tuple
		p, n, err := tab.DeleteWhere(attrsG, Diff(rows), []int{1}, func(pre rel.Tuple) { seen = append(seen, pre) })
		if p != len(rows) || n != total || err != nil || !sameGroups(seen, groups) {
			t.Errorf("DeleteWhere(g in %v) = %d, %d, %v, fn saw %v; model removes %v", rows, p, n, err, seen, groups)
		}
		return fmt.Sprintf("delete instance g in %v", rows)
	case opUpdateInst:
		// Diff tuples are (v', g', id): over g they set v, over k — moving the
		// rows between g buckets as well — g and v.
		attrs, on, dom, setAttrs, setCols, setIdx := attrsG, 1, int64(numGroups), []string{"v"}, []int{0}, []int{2}
		if b%2 == 1 {
			attrs, on, dom, setAttrs, setCols, setIdx = attrsK, 0, numKeys, []string{"g", "v"}, []int{1, 0}, []int{1, 2}
		}
		var rows []rel.Tuple
		var pres, posts [][]rel.Tuple
		total := 0
		for i := int64(0); i < 1+int64(c/numVals%4); i++ {
			id := rel.Int((int64(a) + i*int64(b/2%3)) % dom)
			row := rel.Tuple{rel.Int((int64(c) + i) % numVals), rel.Int((int64(b/6) + i) % numGroups), id}
			rows = append(rows, row)
			hits := m.matching(rel.StatePost, func(r rel.Tuple) bool { return r[on].Same(id) })
			var vals []rel.Value
			for _, j := range setCols {
				vals = append(vals, row[j])
			}
			var after []rel.Tuple
			for _, r := range hits {
				m.update(r[0].AsInt(), setIdx, vals)
				after = append(after, m.post[r[0].AsInt()])
			}
			pres, posts, total = append(pres, hits), append(posts, rel.SortTuples(after)), total+len(hits)
		}
		var seenPre, seenPost []rel.Tuple
		p, n, err := tab.UpdateWhere(attrs, Diff(rows), []int{2}, setAttrs, setCols, func(pre, post rel.Tuple) {
			seenPre, seenPost = append(seenPre, pre), append(seenPost, post)
		})
		if p != len(rows) || n != total || err != nil || !sameGroups(seenPre, pres) || !sameGroups(seenPost, posts) {
			t.Errorf("UpdateWhere(%v in %v set %v) = %d, %d, %v, fn saw %v → %v; model updates %v → %v", attrs, rows, setAttrs, p, n, err, seenPre, seenPost, pres, posts)
		}
		return fmt.Sprintf("update instance %v in %v set %v", attrs, rows, setAttrs)
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
	case opRollback:
		tab.RollbackEpoch()
		if m.inEpoch {
			m.post = make(map[int64]rel.Tuple, len(m.pre))
			for k, r := range m.pre {
				m.post[k] = r
			}
		}
		return "roll back epoch"
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

// sameGroups compares a callback sequence with the model's per-diff-tuple
// groups: tuple by tuple in order, in any order within one tuple's group.
func sameGroups(seen []rel.Tuple, groups [][]rel.Tuple) bool {
	for _, g := range groups {
		if len(seen) < len(g) || !sameSet(seen[:len(g)], g) {
			return false
		}
		seen = seen[len(g):]
	}
	return len(seen) == 0
}

// sameSet compares got, in any order, with the sorted want. Keys are
// unique, so multiset and set equality coincide.
func sameSet(got, want []rel.Tuple) bool {
	return sameTuples(rel.SortTuples(append([]rel.Tuple(nil), got...)), want)
}

// InstanceTable is what RunInstances drives: the APPLY surface, plain inserts
// to fill the table, both states' contents and the epoch transitions.
// rel.Table, every storage backend and the charging storage.Handle have it.
type InstanceTable interface {
	Applier
	Insert(row rel.Tuple) error
	Rows(s rel.State) []rel.Tuple
	BeginEpoch()
	AdvanceEpoch()
	EndEpoch()
	RollbackEpoch()
}

// RunInstances is the differential check of instance-level APPLY: random
// multi-tuple insert, delete and update instances — up to a few lock chunks
// long, with duplicate and conflicting keys — go to one table in one call and
// to a twin one tuple per call, between random epoch transitions (rollbacks
// included). After every instance the two must agree on the counts returned
// (a key conflict leaves the same prefix applied), on the exact sequence of
// image callbacks, on the contents of both states and, when mk hands out
// cost counters (nil otherwise), on every counter: an instance is charged
// what its tuples are.
// Malformed column maps must be refused before any row, and uncharged, and an
// empty instance must do and charge nothing. Both tables come from mk, empty,
// with Schema.
func RunInstances(t testing.TB, rng *rand.Rand, steps int, mk func() (InstanceTable, *rel.CostCounter)) {
	t.Helper()
	whole, wc := mk()
	single, sc := mk()
	const keys, groups = 400, 7
	for k := int64(0); k < keys; k += 2 {
		row := rel.Tuple{rel.Int(k), rel.Int(k % groups), rel.Int(0)}
		if err := whole.Insert(row); err != nil {
			t.Fatal(err)
		}
		if err := single.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		probed, affected int
		failed           bool
		images           []rel.Tuple
	}
	// apply runs one instance of n tuples through f: all at once on whole,
	// tuple by tuple (until the first error) on single.
	apply := func(what string, n int, f func(tab InstanceTable, lo, hi int, see func(...rel.Tuple)) (int, int, error)) {
		t.Helper()
		var a, b result
		p, m, err := f(whole, 0, n, func(img ...rel.Tuple) { a.images = append(a.images, img...) })
		a.probed, a.affected, a.failed = p, m, err != nil
		for i := 0; i < n && !b.failed; i++ {
			p, m, err := f(single, i, i+1, func(img ...rel.Tuple) { b.images = append(b.images, img...) })
			b.probed, b.affected, b.failed = b.probed+p, b.affected+m, err != nil
		}
		if a.probed != b.probed || a.affected != b.affected || a.failed != b.failed {
			t.Errorf("%s of %d tuples: instance = (%d probed, %d affected, failed %v), tuple by tuple = (%d, %d, %v)",
				what, n, a.probed, a.affected, a.failed, b.probed, b.affected, b.failed)
		}
		if !sameTuples(a.images, b.images) {
			t.Errorf("%s of %d tuples: the instance's callbacks saw %v, tuple by tuple %v", what, n, a.images, b.images)
		}
		if wc != nil && *wc != *sc {
			t.Errorf("%s of %d tuples: the instance is charged %+v in all, tuple by tuple %+v", what, n, *wc, *sc)
		}
		for _, s := range states {
			if !sameSet(whole.Rows(s), rel.SortTuples(append([]rel.Tuple(nil), single.Rows(s)...))) {
				t.Errorf("%s of %d tuples: %s-states differ", what, n, s)
			}
		}
	}
	size := func() int { // empty, a handful, or a few lock chunks
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(3)
		case 1:
			return 100 + rng.Intn(300)
		}
		return 1 + rng.Intn(12)
	}
	for step := 0; step < steps && !t.Failed(); step++ {
		n := size()
		rows := make([]rel.Tuple, n) // (v, k, g): not the table's attribute order
		for i := range rows {
			rows[i] = rel.Tuple{rel.Int(int64(rng.Intn(2))), rel.Int(int64(rng.Intn(keys))), rel.Int(int64(rng.Intn(groups)))}
		}
		switch op := rng.Intn(8); op {
		case 0, 1, 2:
			// A tuple whose key is stored (or occurs earlier in the instance)
			// repeats that row — a no-op — except one in a hundred, which
			// conflicts: long instances get far, and fail in the middle.
			have := map[int64]rel.Tuple{}
			for _, r := range whole.Rows(rel.StatePost) {
				have[r[0].AsInt()] = r
			}
			for _, row := range rows {
				k := row[1].AsInt()
				if r, ok := have[k]; !ok {
					have[k] = rel.Tuple{row[1], row[2], row[0]}
				} else if row[2], row[0] = r[1], r[2]; rng.Intn(100) == 0 {
					row[0] = rel.Int(1 - r[2].AsInt())
				}
			}
			apply("InsertIfAbsent", n, func(tab InstanceTable, lo, hi int, see func(...rel.Tuple)) (int, int, error) {
				return tab.InsertIfAbsent(Diff(rows[lo:hi]), []int{1, 2, 0}, func(post rel.Tuple) { see(post) })
			})
		case 3, 4:
			attrs, col := attrsK, 1
			if op == 4 {
				attrs, col = attrsG, 2
			}
			apply("DeleteWhere", n, func(tab InstanceTable, lo, hi int, see func(...rel.Tuple)) (int, int, error) {
				return tab.DeleteWhere(attrs, Diff(rows[lo:hi]), []int{col}, func(pre rel.Tuple) { see(pre) })
			})
		case 5:
			apply("UpdateWhere by key", n, func(tab InstanceTable, lo, hi int, see func(...rel.Tuple)) (int, int, error) {
				return tab.UpdateWhere(attrsK, Diff(rows[lo:hi]), []int{1}, []string{"g", "v"}, []int{2, 0}, func(pre, post rel.Tuple) { see(pre, post) })
			})
		case 6:
			apply("UpdateWhere by group", min(n, 5), func(tab InstanceTable, lo, hi int, see func(...rel.Tuple)) (int, int, error) {
				return tab.UpdateWhere(attrsG, Diff(rows[lo:hi]), []int{2}, []string{"v"}, []int{0}, func(pre, post rel.Tuple) { see(pre, post) })
			})
		default:
			transition := rng.Intn(4)
			for _, tab := range []InstanceTable{whole, single} {
				switch transition {
				case 0:
					tab.BeginEpoch()
				case 1:
					tab.AdvanceEpoch()
				case 2:
					tab.RollbackEpoch()
				default:
					tab.EndEpoch()
				}
			}
		}
	}
	// Malformed maps are refused before any row; empty instances do nothing.
	rows := []rel.Tuple{{rel.Int(0), rel.Int(1), rel.Int(0)}, {rel.Int(0), rel.Int(3), rel.Int(0)}}
	before, contents := rel.CostCounter{}, append([]rel.Tuple(nil), whole.Rows(rel.StatePost)...)
	if wc != nil {
		before = *wc
	}
	for what, f := range map[string]func(rows []rel.Tuple) (int, int, error){
		"InsertIfAbsent with a two-column map": func(rows []rel.Tuple) (int, int, error) { return whole.InsertIfAbsent(Diff(rows), []int{1, 2}, nil) },
		"DeleteWhere with two columns for one attribute": func(rows []rel.Tuple) (int, int, error) {
			return whole.DeleteWhere(attrsG, Diff(rows), []int{1, 2}, nil)
		},
		"UpdateWhere with two columns for one SET attribute": func(rows []rel.Tuple) (int, int, error) {
			return whole.UpdateWhere(attrsK, Diff(rows), []int{1}, []string{"v"}, []int{0, 2}, nil)
		},
		"UpdateWhere of the key": func(rows []rel.Tuple) (int, int, error) {
			return whole.UpdateWhere(attrsG, Diff(rows), []int{2}, attrsK, []int{1}, nil)
		},
	} {
		if p, n, err := f(rows); p != 0 || n != 0 || err == nil {
			t.Errorf("%s = %d, %d, %v; want it refused before any row", what, p, n, err)
		}
	}
	for what, f := range map[string]func() (int, int, error){
		"InsertIfAbsent": func() (int, int, error) { return whole.InsertIfAbsent(Diff(nil), []int{1, 2, 0}, nil) },
		"DeleteWhere":    func() (int, int, error) { return whole.DeleteWhere(attrsG, Diff(nil), []int{2}, nil) },
		"UpdateWhere": func() (int, int, error) {
			return whole.UpdateWhere(attrsG, Diff(nil), []int{2}, []string{"v"}, []int{0}, nil)
		},
	} {
		if p, n, err := f(); p != 0 || n != 0 || err != nil {
			t.Errorf("%s of an empty instance = %d, %d, %v", what, p, n, err)
		}
	}
	if wc != nil && *wc != before {
		t.Errorf("refused and empty instances were charged: %+v, before %+v", *wc, before)
	}
	if !sameTuples(whole.Rows(rel.StatePost), contents) {
		t.Error("refused or empty instances changed the table")
	}
}
