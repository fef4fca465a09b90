package expr

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"idivm/internal/rel"
)

// oracleEval is the tree-walking interpreter Compile replaced, kept here as
// the reference FuzzCompile checks the compiled evaluator against: every
// node re-resolves its columns by name through get, and every function call
// boxes its arguments into a slice for oracleBuiltins.
func oracleEval(e Expr, get func(string) rel.Value) rel.Value {
	switch x := e.(type) {
	case Col:
		return get(x.Name)
	case Lit:
		return x.Val
	case Cmp:
		a, b := oracleEval(x.L, get), oracleEval(x.R, get)
		if x.Op == NE {
			// a <> b is true iff comparable and not equal.
			cv, ok := a.Compare(b)
			return rel.Bool(ok && cv != 0)
		}
		cv, ok := a.Compare(b)
		if !ok {
			return rel.Bool(false)
		}
		switch x.Op {
		case EQ:
			return rel.Bool(cv == 0)
		case LT:
			return rel.Bool(cv < 0)
		case LE:
			return rel.Bool(cv <= 0)
		case GT:
			return rel.Bool(cv > 0)
		case GE:
			return rel.Bool(cv >= 0)
		}
		return rel.Bool(false)
	case AndExpr:
		for _, t := range x.Terms {
			if !oracleEval(t, get).AsBool() {
				return rel.Bool(false)
			}
		}
		return rel.Bool(true)
	case OrExpr:
		for _, t := range x.Terms {
			if oracleEval(t, get).AsBool() {
				return rel.Bool(true)
			}
		}
		return rel.Bool(false)
	case NotExpr:
		return rel.Bool(!oracleEval(x.E, get).AsBool())
	case Arith:
		a, b := oracleEval(x.L, get), oracleEval(x.R, get)
		switch x.Op {
		case '+':
			return rel.Add(a, b)
		case '-':
			return rel.Sub(a, b)
		case '*':
			return rel.Mul(a, b)
		case '/':
			return rel.Div(a, b)
		}
		return rel.Null()
	case Func:
		fn, ok := oracleBuiltins[strings.ToLower(x.Name)]
		if !ok {
			return rel.Null()
		}
		args := make([]rel.Value, len(x.Args))
		for i, a := range x.Args {
			args[i] = oracleEval(a, get)
		}
		return fn(args)
	case IsNullExpr:
		return rel.Bool(oracleEval(x.E, get).IsNull())
	}
	panic("oracleEval: unknown node")
}

// oracleBuiltins is the function library over argument slices that
// builtins replaced.
var oracleBuiltins = map[string]func([]rel.Value) rel.Value{
	"abs": func(a []rel.Value) rel.Value {
		if len(a) != 1 || !a[0].IsNumeric() {
			return rel.Null()
		}
		if a[0].Kind == rel.KindInt {
			v := a[0].AsInt()
			if v < 0 {
				v = -v
			}
			return rel.Int(v)
		}
		return rel.Float(math.Abs(a[0].AsFloat()))
	},
	"lower": func(a []rel.Value) rel.Value {
		if len(a) != 1 || a[0].Kind != rel.KindString {
			return rel.Null()
		}
		return rel.String(strings.ToLower(a[0].Text()))
	},
	"upper": func(a []rel.Value) rel.Value {
		if len(a) != 1 || a[0].Kind != rel.KindString {
			return rel.Null()
		}
		return rel.String(strings.ToUpper(a[0].Text()))
	},
	"length": func(a []rel.Value) rel.Value {
		if len(a) != 1 || a[0].Kind != rel.KindString {
			return rel.Null()
		}
		return rel.Int(int64(len(a[0].Text())))
	},
	"concat": func(a []rel.Value) rel.Value {
		var b strings.Builder
		for _, v := range a {
			if v.IsNull() {
				return rel.Null()
			}
			switch v.Kind {
			case rel.KindString:
				b.WriteString(v.Text())
			default:
				b.WriteString(strings.Trim(v.String(), `"`))
			}
		}
		return rel.String(b.String())
	},
	"mod": func(a []rel.Value) rel.Value {
		if len(a) != 2 || a[0].Kind != rel.KindInt || a[1].Kind != rel.KindInt || a[1].AsInt() == 0 {
			return rel.Null()
		}
		return rel.Int(a[0].AsInt() % a[1].AsInt())
	},
	"round": func(a []rel.Value) rel.Value {
		if len(a) != 1 || !a[0].IsNumeric() {
			return rel.Null()
		}
		return rel.Float(math.Round(a[0].AsFloat()))
	},
	"keyeq": func(a []rel.Value) rel.Value {
		if len(a) != 2 {
			return rel.Null()
		}
		return rel.Bool(a[0].KeyEqual(a[1]))
	},
	"notnull": func(a []rel.Value) rel.Value {
		if len(a) != 1 || a[0].IsNull() {
			return rel.Int(0)
		}
		return rel.Int(1)
	},
	"coalesce": func(a []rel.Value) rel.Value {
		for _, v := range a {
			if !v.IsNull() {
				return v
			}
		}
		return rel.Null()
	},
	"greatest": func(a []rel.Value) rel.Value {
		if len(a) == 0 {
			return rel.Null()
		}
		best := a[0]
		for _, v := range a[1:] {
			if c, ok := v.Compare(best); ok && c > 0 {
				best = v
			}
		}
		return best
	},
	"least": func(a []rel.Value) rel.Value {
		if len(a) == 0 {
			return rel.Null()
		}
		best := a[0]
		for _, v := range a[1:] {
			if c, ok := v.Compare(best); ok && c < 0 {
				best = v
			}
		}
		return best
	},
}

const p53 = int64(1) << 53

// fuzzValues are the values FuzzCompile draws row cells and literals from:
// NULL, the int/float boundary around 2^53, NaN, both zeros, infinities,
// empty and quoted strings and booleans, so every operator meets mixed kinds.
var fuzzValues = []rel.Value{
	rel.Null(), rel.Int(0), rel.Int(1), rel.Int(-7), rel.Int(p53), rel.Int(p53 + 1),
	rel.Int(math.MinInt64), rel.Int(math.MaxInt64), rel.Float(0), rel.Float(math.Copysign(0, -1)),
	rel.Float(math.NaN()), rel.Float(float64(p53)), rel.Float(2.5), rel.Float(-0.5),
	rel.Float(math.Inf(1)), rel.String(""), rel.String("x"), rel.String(`Q"q`),
	rel.Bool(true), rel.Bool(false), rel.Float(1),
}

var (
	fuzzCols   = []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	fuzzCmps   = []CmpOp{EQ, NE, LT, LE, GT, GE, "!"}
	fuzzAriths = []byte{'+', '-', '*', '/', '%'}
	// fuzzFuncs is every builtin, two in other cases, and an unknown name;
	// a new builtin goes last, so the corpus keeps decoding as it did.
	fuzzFuncs = []string{"abs", "coalesce", "concat", "greatest", "least", "length", "lower",
		"mod", "notnull", "round", "upper", "COALESCE", "NotNull", "nosuchfn", "keyeq"}
)

// exprDecoder turns fuzz bytes into an expression tree; an exhausted input
// reads as zeros, which decode to the column c0.
type exprDecoder struct{ data []byte }

func (d *exprDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *exprDecoder) expr(depth int) Expr {
	kind := d.next() % 9
	if depth == 0 {
		kind %= 2
	}
	switch kind {
	case 0:
		return C(fuzzCols[d.next()%len(fuzzCols)])
	case 1:
		return V(fuzzValues[d.next()%len(fuzzValues)])
	case 2:
		return Cmp{Op: fuzzCmps[d.next()%len(fuzzCmps)], L: d.expr(depth - 1), R: d.expr(depth - 1)}
	case 3:
		return AndExpr{Terms: d.list(depth - 1)}
	case 4:
		return OrExpr{Terms: d.list(depth - 1)}
	case 5:
		return NotExpr{E: d.expr(depth - 1)}
	case 6:
		return Arith{Op: fuzzAriths[d.next()%len(fuzzAriths)], L: d.expr(depth - 1), R: d.expr(depth - 1)}
	case 7:
		return Func{Name: fuzzFuncs[d.next()%len(fuzzFuncs)], Args: d.list(depth - 1)}
	}
	return IsNullExpr{E: d.expr(depth - 1)}
}

// list decodes 0–3 subexpressions.
func (d *exprDecoder) list(depth int) []Expr {
	out := make([]Expr, d.next()%4)
	for i := range out {
		out[i] = d.expr(depth)
	}
	return out
}

// FuzzCompile decodes a row of edge values and an expression tree over the
// columns c0…c5, then requires Compile(e).Eval on the row and
// CompilePair(e).Eval on the row split across two schemas that share c3
// (which resolves left) to return exactly (==) what the interpreter oracle
// returns, and both compilations to fail exactly when e calls an unknown
// function.
func FuzzCompile(f *testing.F) {
	for name := range builtins {
		if !slices.Contains(fuzzFuncs, name) {
			f.Fatalf("fuzzFuncs misses the builtin %q", name)
		}
	}
	full := rel.NewSchema(fuzzCols, nil)
	left := rel.NewSchema(fuzzCols[:4], nil)
	right := rel.NewSchema(fuzzCols[3:], nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data}
		row := make(rel.Tuple, len(fuzzCols))
		for i := range row {
			row[i] = fuzzValues[d.next()%len(fuzzValues)]
		}
		shadow := fuzzValues[d.next()%len(fuzzValues)] // right's c3, never read
		e := d.expr(5)
		want := oracleEval(e, func(name string) rel.Value { return row[full.Index(name)] })

		c, err := Compile(e, full)
		p, perr := CompilePair(e, left, right)
		// nosuchfn is the one unknown name the decoder emits.
		if strings.Contains(e.String(), "nosuchfn(") {
			if err == nil || perr == nil {
				t.Fatalf("%s: unknown function compiled (Compile err %v, CompilePair err %v)", e, err, perr)
			}
			return
		}
		if err != nil || perr != nil {
			t.Fatalf("%s: Compile err %v, CompilePair err %v", e, err, perr)
		}
		if got := c.Eval(row); got != want {
			t.Fatalf("%s on %v: Compile.Eval = %v, oracle %v", e, row, got, want)
		}
		if got := p.Eval(row[:4], rel.Tuple{shadow, row[4], row[5]}); got != want {
			t.Fatalf("%s on %v: CompilePair.Eval = %v, oracle %v", e, row, got, want)
		}
		if c.EvalBool(row) != want.AsBool() {
			t.Fatalf("%s on %v: EvalBool disagrees with Eval", e, row)
		}
	})
}

// stringBuilders are the builtins whose result is a freshly built string;
// every other builtin must evaluate without allocating.
var stringBuilders = map[string]bool{"lower": true, "upper": true, "concat": true}

// allocFree are the expressions TestCompiledEvalDoesNotAllocate and
// BenchmarkCompiledEval run, over allocSchema: the γ delta item, notnull, a
// predicate over every connective, and every builtin that builds no string.
var (
	allocSchema = rel.NewSchema([]string{"a#pre", "a#post", "x", "s"}, nil)
	allocRow    = rel.Tuple{rel.Int(3), rel.Null(), rel.Float(-2.5), rel.String("hi")}
	allocFree   = map[string]Expr{
		"delta":     SubE(Call("coalesce", C("a#post"), IntLit(0)), Call("coalesce", C("a#pre"), IntLit(0))),
		"notnull":   Call("notnull", C("x")),
		"predicate": Or(And(Ge(C("a#pre"), C("x")), Not(IsNull(C("s")))), IsNull(C("a#post"))),
		"abs":       Call("abs", C("x")),
		"coalesce":  Call("coalesce", C("a#post"), C("a#pre")),
		"greatest":  Call("greatest", C("a#pre"), C("x"), IntLit(9)),
		"least":     Call("least", C("a#pre"), C("x")),
		"length":    Call("length", C("s")),
		"mod":       Call("mod", C("a#pre"), IntLit(2)),
		"keyeq":     Call("keyeq", C("a#post"), C("a#pre")),
		"round":     Call("round", C("x")),
	}
)

func TestCompiledEvalDoesNotAllocate(t *testing.T) {
	names := make([]string, 0, len(allocFree))
	for name := range allocFree {
		names = append(names, name)
	}
	sort.Strings(names)
	for name := range builtins {
		if _, ok := allocFree[name]; !ok && !stringBuilders[name] {
			t.Errorf("builtin %q is neither checked for allocations nor a string builder", name)
		}
	}
	var sink rel.Value
	for _, name := range names {
		c := MustCompile(allocFree[name], allocSchema)
		if n := testing.AllocsPerRun(100, func() { sink = c.Eval(allocRow) }); n != 0 {
			t.Errorf("%s: %v allocations per Eval, want 0", allocFree[name], n)
		}
	}
	left := rel.NewSchema([]string{"a#pre", "a#post"}, nil)
	right := rel.NewSchema([]string{"x", "s"}, nil)
	p, err := CompilePair(And(Lt(C("x"), C("a#pre")), Ne(C("s"), StrLit("")), Not(IsNull(C("a#pre")))), left, right)
	if err != nil {
		t.Fatal(err)
	}
	l, r := allocRow[:2], allocRow[2:]
	var ok bool
	if n := testing.AllocsPerRun(100, func() { ok = p.EvalBool(l, r) }); n != 0 || !ok {
		t.Errorf("pair residual: %v allocations per EvalBool (result %v), want 0 and true", n, ok)
	}
	_ = sink
}

func BenchmarkCompiledEval(b *testing.B) {
	for _, name := range []string{"delta", "notnull", "predicate"} {
		c := MustCompile(allocFree[name], allocSchema)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink rel.Value
			for i := 0; i < b.N; i++ {
				sink = c.Eval(allocRow)
			}
			_ = sink
		})
	}
}
