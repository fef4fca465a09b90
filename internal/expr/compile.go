package expr

import (
	"fmt"
	"strings"

	"idivm/internal/rel"
)

// evaluator computes one compiled expression over a (left, right) tuple
// pair. Compile binds every column to the left tuple and passes no right
// one; CompilePair binds each column to the side that holds it. Evaluators
// are closures built once at compile time and never written after, so a
// compiled expression without parameters is safe to share between
// goroutines, and evaluating one allocates nothing unless a builtin builds a
// string.
type evaluator func(l, r rel.Tuple) rel.Value

// Params is the parameter vector of compiled expressions: a Param compiled
// against it reads the vector's value when evaluated, so an expression
// compiled once runs with whatever values were Set last. Whoever owns the
// vector sets it between evaluations, never during one.
type Params struct{ vals []rel.Value }

// Set makes vals[i] the value of parameter i.
func (ps *Params) Set(vals []rel.Value) { ps.vals = append(ps.vals[:0], vals...) }

// Compiled is an expression bound to a schema, evaluated directly against
// tuples of that schema.
type Compiled struct{ eval evaluator }

// Compile binds e to schema, resolving every referenced column to its
// position. It returns an error naming the first unresolved column or
// unknown function, or a parameter, which only Params.Compile takes.
func Compile(e Expr, schema rel.Schema) (*Compiled, error) {
	var ps *Params
	return ps.Compile(e, schema)
}

// Compile is expr.Compile with e's parameters read from ps.
func (ps *Params) Compile(e Expr, schema rel.Schema) (*Compiled, error) {
	ev, err := ps.compile(e, func(name string) (evaluator, error) {
		if j := schema.Index(name); j >= 0 {
			return leftCol(j), nil
		}
		return nil, fmt.Errorf("expr: column %q not in schema %v", name, schema.Attrs)
	})
	if err != nil {
		return nil, err
	}
	return &Compiled{eval: ev}, nil
}

// MustCompile is Compile that panics on error, for static plans and tests.
func MustCompile(e Expr, schema rel.Schema) *Compiled {
	c, err := Compile(e, schema)
	if err != nil {
		panic(err)
	}
	return c
}

// Eval evaluates the bound expression against a tuple of the bound schema.
func (c *Compiled) Eval(t rel.Tuple) rel.Value { return c.eval(t, nil) }

// EvalBool evaluates the expression as a predicate.
func (c *Compiled) EvalBool(t rel.Tuple) bool { return c.eval(t, nil).AsBool() }

// CompiledPair is an expression bound by CompilePair, evaluated over the
// concatenation of two tuples.
type CompiledPair struct{ eval evaluator }

// CompilePair binds e against the concatenation of two schemas (left then
// right), as needed by join predicates, without materializing concatenated
// tuples. Columns present in both schemas resolve to the left side.
func CompilePair(e Expr, left, right rel.Schema) (*CompiledPair, error) {
	var ps *Params
	return ps.CompilePair(e, left, right)
}

// CompilePair is expr.CompilePair with e's parameters read from ps.
func (ps *Params) CompilePair(e Expr, left, right rel.Schema) (*CompiledPair, error) {
	ev, err := ps.compile(e, func(name string) (evaluator, error) {
		if j := left.Index(name); j >= 0 {
			return leftCol(j), nil
		}
		if j := right.Index(name); j >= 0 {
			return rightCol(j), nil
		}
		return nil, fmt.Errorf("expr: column %q not in %v or %v", name, left.Attrs, right.Attrs)
	})
	if err != nil {
		return nil, err
	}
	return &CompiledPair{eval: ev}, nil
}

// Eval evaluates against a (left, right) tuple pair.
func (c *CompiledPair) Eval(l, r rel.Tuple) rel.Value { return c.eval(l, r) }

// EvalBool evaluates the pair expression as a predicate.
func (c *CompiledPair) EvalBool(l, r rel.Tuple) bool { return c.eval(l, r).AsBool() }

func leftCol(j int) evaluator  { return func(l, _ rel.Tuple) rel.Value { return l[j] } }
func rightCol(j int) evaluator { return func(_, r rel.Tuple) rel.Value { return r[j] } }

// constant evaluates to v on every row.
func constant(v rel.Value) evaluator { return func(_, _ rel.Tuple) rel.Value { return v } }

// ariths maps an Arith operator to its rel function; any other operator
// yields NULL.
var ariths = map[byte]func(a, b rel.Value) rel.Value{'+': rel.Add, '-': rel.Sub, '*': rel.Mul, '/': rel.Div}

// compile builds e's evaluator, resolving each column reference through col
// and each parameter to ps, and choosing each operator and builtin once, here
// rather than per row.
func (ps *Params) compile(e Expr, col func(string) (evaluator, error)) (evaluator, error) {
	switch x := e.(type) {
	case Col:
		return col(x.Name)
	case Lit:
		return constant(x.Val), nil
	case Param:
		if ps == nil {
			return nil, fmt.Errorf("expr: parameter %s outside a parameterized plan", x)
		}
		return func(_, _ rel.Tuple) rel.Value { return ps.vals[x.I] }, nil
	case Cmp:
		args, err := ps.compileAll(col, x.L, x.R)
		if err != nil {
			return nil, err
		}
		a, b := args[0], args[1]
		// The outcomes of Compare the operator accepts; none for an unknown one.
		lt := x.Op == LT || x.Op == LE || x.Op == NE
		eq := x.Op == EQ || x.Op == LE || x.Op == GE
		gt := x.Op == GT || x.Op == GE || x.Op == NE
		return func(l, r rel.Tuple) rel.Value {
			c, ok := a(l, r).Compare(b(l, r))
			return rel.Bool(ok && (c < 0 && lt || c == 0 && eq || c > 0 && gt))
		}, nil
	case AndExpr:
		return ps.compileTerms(col, x.Terms, false)
	case OrExpr:
		return ps.compileTerms(col, x.Terms, true)
	case NotExpr:
		a, err := ps.compile(x.E, col)
		if err != nil {
			return nil, err
		}
		return func(l, r rel.Tuple) rel.Value { return rel.Bool(!a(l, r).AsBool()) }, nil
	case IsNullExpr:
		a, err := ps.compile(x.E, col)
		if err != nil {
			return nil, err
		}
		return func(l, r rel.Tuple) rel.Value { return rel.Bool(a(l, r).IsNull()) }, nil
	case Arith:
		args, err := ps.compileAll(col, x.L, x.R)
		if err != nil {
			return nil, err
		}
		op, ok := ariths[x.Op]
		if !ok {
			return constant(rel.Null()), nil
		}
		a, b := args[0], args[1]
		return func(l, r rel.Tuple) rel.Value { return op(a(l, r), b(l, r)) }, nil
	case Func:
		args, err := ps.compileAll(col, x.Args...)
		if err != nil {
			return nil, err
		}
		build, ok := builtins[strings.ToLower(x.Name)]
		if !ok {
			return nil, fmt.Errorf("expr: unknown function %q", x.Name)
		}
		return build(args), nil
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

// compileTerms builds a conjunction (decisive false) or a disjunction
// (decisive true): the first term whose truth is decisive is the result, and
// with none it is the other truth value.
func (ps *Params) compileTerms(col func(string) (evaluator, error), es []Expr, decisive bool) (evaluator, error) {
	terms, err := ps.compileAll(col, es...)
	if err != nil {
		return nil, err
	}
	return func(l, r rel.Tuple) rel.Value {
		for _, t := range terms {
			if t(l, r).AsBool() == decisive {
				return rel.Bool(decisive)
			}
		}
		return rel.Bool(!decisive)
	}, nil
}

// compileAll compiles es in order, stopping at the first error.
func (ps *Params) compileAll(col func(string) (evaluator, error), es ...Expr) ([]evaluator, error) {
	out := make([]evaluator, len(es))
	for i, e := range es {
		var err error
		if out[i], err = ps.compile(e, col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rename returns a copy of e with column names substituted per the map.
// Names absent from the map are kept. It is used by the IVM rule engine to
// retarget predicates at the pre-/post-state columns of diff tables.
func Rename(e Expr, m map[string]string) Expr {
	switch x := e.(type) {
	case Col:
		if n, ok := m[x.Name]; ok {
			return Col{Name: n}
		}
		return x
	case Lit:
		return x
	case Cmp:
		return Cmp{Op: x.Op, L: Rename(x.L, m), R: Rename(x.R, m)}
	case AndExpr:
		ts := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			ts[i] = Rename(t, m)
		}
		return AndExpr{Terms: ts}
	case OrExpr:
		ts := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			ts[i] = Rename(t, m)
		}
		return OrExpr{Terms: ts}
	case NotExpr:
		return NotExpr{E: Rename(x.E, m)}
	case Arith:
		return Arith{Op: x.Op, L: Rename(x.L, m), R: Rename(x.R, m)}
	case Func:
		as := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			as[i] = Rename(a, m)
		}
		return Func{Name: x.Name, Args: as}
	case IsNullExpr:
		return IsNullExpr{E: Rename(x.E, m)}
	default:
		return e
	}
}

// Subst returns a copy of e with column references replaced by whole
// subexpressions per the map. The plan minimizer uses it to merge stacked
// projections.
func Subst(e Expr, m map[string]Expr) Expr {
	switch x := e.(type) {
	case Col:
		if n, ok := m[x.Name]; ok {
			return n
		}
		return x
	case Lit:
		return x
	case Cmp:
		return Cmp{Op: x.Op, L: Subst(x.L, m), R: Subst(x.R, m)}
	case AndExpr:
		ts := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			ts[i] = Subst(t, m)
		}
		return AndExpr{Terms: ts}
	case OrExpr:
		ts := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			ts[i] = Subst(t, m)
		}
		return OrExpr{Terms: ts}
	case NotExpr:
		return NotExpr{E: Subst(x.E, m)}
	case Arith:
		return Arith{Op: x.Op, L: Subst(x.L, m), R: Subst(x.R, m)}
	case Func:
		as := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			as[i] = Subst(a, m)
		}
		return Func{Name: x.Name, Args: as}
	case IsNullExpr:
		return IsNullExpr{E: Subst(x.E, m)}
	default:
		return e
	}
}

// Conjuncts flattens e into its top-level AND terms.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(AndExpr); ok {
		var out []Expr
		for _, t := range a.Terms {
			out = append(out, Conjuncts(t)...)
		}
		return out
	}
	if IsTrueLit(e) {
		return nil
	}
	return []Expr{e}
}

// EqLiterals splits e's conjuncts into column = value equalities whose
// column resolves in schema and whose value is a non-NULL literal or a
// parameter, plus the residual predicate (TRUE when none remains). vals
// holds each equality's literal; an equality on a parameter leaves its
// place in vals zero and is listed in params. The extracted pairs can run as
// secondary-index probes: rel.Value key encoding is injective and agrees
// with Compare on non-NULL values, so an index probe returns exactly the
// rows the equality accepts. NULL literals stay in the residual — SQL's
// col = NULL is always false, while an index probe on the encoded NULL
// would wrongly match stored NULLs; a parameter is never NULL.
func EqLiterals(e Expr, schema rel.Schema) (cols []string, vals []rel.Value, params []ParamAt, residual Expr) {
	var rest []Expr
	for _, c := range Conjuncts(e) {
		if cmp, ok := c.(Cmp); ok && cmp.Op == EQ {
			col, colOK := cmp.L.(Col)
			val := cmp.R
			if !colOK {
				col, colOK = cmp.R.(Col)
				val = cmp.L
			}
			if colOK && schema.Has(col.Name) {
				switch x := val.(type) {
				case Param:
					params = append(params, ParamAt{At: len(vals), Param: x})
					cols, vals = append(cols, col.Name), append(vals, rel.Value{})
					continue
				case Lit:
					if !x.Val.IsNull() {
						cols, vals = append(cols, col.Name), append(vals, x.Val)
						continue
					}
				}
			}
		}
		rest = append(rest, c)
	}
	return cols, vals, params, And(rest...)
}

// ParamAt is a parameter among EqLiterals' values: it stands for vals[At].
type ParamAt struct {
	At    int
	Param Param
}

// EquiPairs extracts the equality pairs (leftCol, rightCol) from the
// conjuncts of a join predicate whose sides resolve to the given schemas,
// plus the residual non-equi predicate (TRUE when none). This drives
// index-based join evaluation.
func EquiPairs(e Expr, left, right rel.Schema) (lcols, rcols []string, residual Expr) {
	var rest []Expr
	for _, c := range Conjuncts(e) {
		if cmp, ok := c.(Cmp); ok && cmp.Op == EQ {
			lc, lok := cmp.L.(Col)
			rc, rok := cmp.R.(Col)
			if lok && rok {
				switch {
				case left.Has(lc.Name) && right.Has(rc.Name) && !left.Has(rc.Name):
					lcols = append(lcols, lc.Name)
					rcols = append(rcols, rc.Name)
					continue
				case right.Has(lc.Name) && left.Has(rc.Name) && !left.Has(lc.Name):
					lcols = append(lcols, rc.Name)
					rcols = append(rcols, lc.Name)
					continue
				case left.Has(lc.Name) && right.Has(rc.Name):
					lcols = append(lcols, lc.Name)
					rcols = append(rcols, rc.Name)
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	return lcols, rcols, And(rest...)
}
