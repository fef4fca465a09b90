package algebra

import (
	"fmt"
	"math"
	"testing"

	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// TestKeysSameIdxIsKeyEquality pins the verification step of the hash
// kernels to the equivalence their buckets are filed under: two candidates
// that share a 64-bit digest match only when their EncodeKey bytes do. Same
// would also accept 2^53 against 2^53+1 and NaN against any number.
func TestKeysSameIdxIsKeyEquality(t *testing.T) {
	const p53 = int64(1) << 53
	sch := rel.NewSchema([]string{"k"}, nil)
	one := func(v rel.Value) *rel.Batch { return rel.FromTuples(sch, []rel.Tuple{{v}}) }
	for _, c := range []struct {
		l, r rel.Value
		want bool
	}{
		{rel.Int(p53), rel.Int(p53 + 1), false},
		{rel.Int(p53), rel.Float(float64(p53)), true},
		{rel.Int(p53 + 1), rel.Float(float64(p53)), false},
		{rel.Float(math.NaN()), rel.Float(5), false},
		{rel.Float(math.NaN()), rel.Float(math.NaN()), true},
		{rel.Float(math.Copysign(0, -1)), rel.Int(0), true},
		{rel.Null(), rel.Null(), true},
		{rel.Null(), rel.Int(0), false},
	} {
		if got := keysSameIdx(one(c.l), one(c.r), []int{0}, []int{0}, 0, 0); got != c.want {
			t.Errorf("keysSameIdx(%v, %v) = %v, want %v", c.l, c.r, got, c.want)
		}
	}
}

// mapEnv is a database plus named relations.
type mapEnv struct {
	*db.Database
	rels map[string]*rel.Relation
}

func (e mapEnv) Bound(name string) (*rel.Binding, error) {
	if r, ok := e.rels[name]; ok {
		return rel.BindRelation(r), nil
	}
	return e.Database.Bound(name)
}

// TestCollidingDigestsNeverMerge cuts the key digests of the hash kernels to
// two bits, so that every chain of every table mixes a dozen unequal keys,
// and requires what the oracle — which files by encoded key and knows no
// digest — produces: the same rows in the same order. A kernel that took a
// digest's word for a match would join, drop or group rows of different keys
// here; the γ check counts the groups outright.
func TestCollidingDigestsNeverMerge(t *testing.T) {
	keyMask = 3
	defer func() { keyMask = ^uint64(0) }()

	const n = 48
	sch := func(p string) rel.Schema { return rel.NewSchema([]string{p + "k", p + "s", p + "v"}, nil) }
	side := func(p string, step int) *rel.Relation {
		r := rel.NewRelation(sch(p))
		for i := 0; i < n; i++ {
			k := (i * step) % n
			r.Add(rel.Tuple{rel.Int(int64(k)), rel.String(string(rune('a' + k%7))), rel.Int(int64(i))})
		}
		return r
	}
	d := db.New()
	stSchema := rel.NewSchema([]string{"id", "k", "s"}, []string{"id"})
	st := d.MustCreateTable("st", stSchema)
	for i := 0; i < 2*n; i++ {
		st.MustInsert(rel.Int(int64(i)), rel.Int(int64(i%n)), rel.String(string(rune('a'+i%7))))
	}
	env := mapEnv{Database: d, rels: map[string]*rel.Relation{"l": side("l", 1), "r": side("r", 5)}}
	l, r := NewRelRef("l", sch("l")), NewRelRef("r", sch("r"))
	on := expr.Eq(expr.C("lk"), expr.C("rk"))
	on2 := expr.And(on, expr.Eq(expr.C("ls"), expr.C("rs")))
	count := []Agg{{Fn: AggCount, As: "n"}}
	plans := map[string]Node{
		"join-hash":      NewJoin(l, r, on),
		"join-hash-2col": NewJoin(l, r, on2),
		"semi-hash":      NewSemiJoin(l, NewSelect(r, expr.Lt(expr.C("rv"), expr.IntLit(20))), on),
		"anti-hash":      NewAntiJoin(l, NewSelect(r, expr.Lt(expr.C("rv"), expr.IntLit(20))), on2),
		"groupby":        NewGroupBy(l, []string{"lk"}, count),
		"groupby-2col":   NewGroupBy(r, []string{"rs", "rk"}, count),
		"semi-probe-l": NewSemiJoin(NewScan("st", "", stSchema), r,
			expr.And(expr.Eq(expr.C("st.k"), expr.C("rk")), expr.Eq(expr.C("st.s"), expr.C("rs")))),
	}
	for name, plan := range plans {
		want, err := Eval(plan, env)
		if err != nil {
			t.Fatalf("%s: eval: %v", name, err)
		}
		got, err := MustCompile(plan).Run(env)
		if err != nil {
			t.Fatalf("%s: compiled: %v", name, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d rows, the oracle has %d", name, got.Len(), want.Len())
		}
		for i := range want.Tuples {
			if rel.TupleKey(got.Tuples[i]) != rel.TupleKey(want.Tuples[i]) {
				t.Fatalf("%s: row %d is %v, the oracle has %v", name, i, got.Tuples[i], want.Tuples[i])
			}
		}
		if name == "groupby" && got.Len() != n {
			t.Fatalf("groupby: %d groups for %d distinct keys under 4 digests", got.Len(), n)
		}
	}
}

// TestDistinctProbeKeysReturnDisjointRows is what lets the probe-left
// semijoin emit every probed row without remembering the ones it emitted:
// one index probed with two keys that are not KeyEqual — 2^53 and 2^53+1, an
// int and a float that differ, NaN and a number — never returns the same
// stored row twice, and one probe never returns a row twice, in either state
// of an epoch whose writes moved, deleted and re-added rows. KeyEqual is
// equality of encodings, an equivalence, so a stored value KeyEqual to both
// keys would make them KeyEqual to each other. The semijoin over the same
// values, right keys repeated under KeyEqual twins, matches the oracle, which
// keeps its emitted set, row for row.
func TestDistinctProbeKeysReturnDisjointRows(t *testing.T) {
	const p53 = int64(1) << 53
	vals := []rel.Value{
		rel.Int(p53), rel.Int(p53 + 1), rel.Float(float64(p53)), rel.Float(float64(p53) + 2),
		rel.Int(1), rel.Float(1), rel.Float(1.5), rel.Float(math.NaN()), rel.Float(math.Copysign(0, -1)),
		rel.Int(0), rel.String("1"), rel.Null(),
	}
	d := db.New()
	stSchema := rel.NewSchema([]string{"id", "g"}, []string{"id"})
	st := d.MustCreateTable("st", stSchema)
	for i := 0; i < 3*len(vals); i++ {
		st.MustInsert(rel.Int(int64(i)), vals[i%len(vals)])
	}
	if _, err := st.Lookup(rel.StatePost, []string{"g"}, vals[:1]); err != nil {
		t.Fatal(err)
	}
	st.BeginEpoch()
	defer st.EndEpoch()
	for i := 0; i < len(vals); i++ { // move, delete and re-add rows under the index
		if _, err := st.UpdateKey([]rel.Value{rel.Int(int64(i))}, []string{"g"}, []rel.Value{vals[(i+5)%len(vals)]}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			st.DeleteKey([]rel.Value{rel.Int(int64(len(vals) + i))})
			st.MustInsert(rel.Int(int64(100+i)), vals[(i+7)%len(vals)])
		}
	}
	for _, s := range []rel.State{rel.StatePost, rel.StatePre} {
		owner := map[int64]rel.Value{} // row id → the probe key that returned it
		for _, v := range vals {
			rows, err := st.Lookup(s, []string{"g"}, []rel.Value{v})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatalf("%s: probing %v found nothing: the test does not reach its rows", s, v)
			}
			mine := map[int64]bool{}
			for _, row := range rows {
				id := row[0].AsInt()
				if mine[id] {
					t.Errorf("%s: probing %v returned row %v twice", s, v, row)
				}
				mine[id] = true
				if o, ok := owner[id]; ok && !o.KeyEqual(v) {
					t.Errorf("%s: row %v is returned by %v and by %v, keys that are not KeyEqual", s, row, o, v)
				}
				owner[id] = v
			}
		}
	}
	right := rel.NewRelation(rel.NewSchema([]string{"rg"}, nil))
	for _, v := range append(append([]rel.Value(nil), vals...), vals...) {
		right.Add(rel.Tuple{v})
	}
	env := mapEnv{Database: d, rels: map[string]*rel.Relation{"r": right}}
	for _, s := range []rel.State{rel.StatePost, rel.StatePre} {
		scan := NewScan("st", "", stSchema)
		scan.St = s
		plan := NewSemiJoin(scan, NewRelRef("r", right.Schema), expr.Eq(expr.C("st.g"), expr.C("rg")))
		if pl, err := planSemi(plan); err != nil || pl.strategy != semiProbeLeft {
			t.Fatalf("%s: strategy %v, %v; want the probe-left semijoin", s, pl.strategy, err)
		}
		want, err := Eval(plan, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MustCompile(plan).Run(env)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) || got.Len() == 0 {
			t.Errorf("%s: compiled %v, the oracle %v", s, got.Tuples, want.Tuples)
		}
	}
}
