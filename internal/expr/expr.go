// Package expr implements the scalar expression language used in
// selections, join conditions and generalized projections: column
// references, literals, comparisons, boolean connectives, arithmetic and a
// small library of functions.
package expr

import (
	"strconv"
	"strings"

	"idivm/internal/rel"
)

// Expr is a scalar expression over a tuple.
type Expr interface {
	// Cols returns the column names the expression references (with
	// duplicates removed, in first-reference order).
	Cols() []string
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Col references a column by name.
type Col struct{ Name string }

// C is shorthand for a column reference.
func C(name string) Col { return Col{Name: name} }

// Cols implements Expr.
func (c Col) Cols() []string { return []string{c.Name} }

// String implements Expr.
func (c Col) String() string { return c.Name }

// Lit is a literal value.
type Lit struct{ Val rel.Value }

// V wraps a value as a literal expression.
func V(v rel.Value) Lit { return Lit{Val: v} }

// IntLit is a convenience integer literal.
func IntLit(i int64) Lit { return Lit{Val: rel.Int(i)} }

// StrLit is a convenience string literal.
func StrLit(s string) Lit { return Lit{Val: rel.String(s)} }

// FloatLit is a convenience float literal.
func FloatLit(f float64) Lit { return Lit{Val: rel.Float(f)} }

// Cols implements Expr.
func (l Lit) Cols() []string { return nil }

// String implements Expr.
func (l Lit) String() string { return l.Val.String() }

// Param is a statement parameter: the value at position I of the Params an
// expression is compiled against, set before each run. A parameter stands
// for a number or string literal, so its value is never NULL.
type Param struct{ I int }

// Cols implements Expr.
func (p Param) Cols() []string { return nil }

// String implements Expr.
func (p Param) String() string { return "$" + strconv.Itoa(p.I+1) }

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	EQ CmpOp = "="
	NE CmpOp = "<>"
	LT CmpOp = "<"
	LE CmpOp = "<="
	GT CmpOp = ">"
	GE CmpOp = ">="
)

// Cmp compares two subexpressions. Comparisons involving NULL or
// incomparable kinds yield false (we fold SQL's UNKNOWN to false, which is
// equivalent under WHERE semantics).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eq builds L = R.
func Eq(l, r Expr) Cmp { return Cmp{Op: EQ, L: l, R: r} }

// Ne builds L <> R.
func Ne(l, r Expr) Cmp { return Cmp{Op: NE, L: l, R: r} }

// Lt builds L < R.
func Lt(l, r Expr) Cmp { return Cmp{Op: LT, L: l, R: r} }

// Le builds L <= R.
func Le(l, r Expr) Cmp { return Cmp{Op: LE, L: l, R: r} }

// Gt builds L > R.
func Gt(l, r Expr) Cmp { return Cmp{Op: GT, L: l, R: r} }

// Ge builds L >= R.
func Ge(l, r Expr) Cmp { return Cmp{Op: GE, L: l, R: r} }

// Cols implements Expr.
func (c Cmp) Cols() []string { return mergeCols(c.L, c.R) }

// String implements Expr.
func (c Cmp) String() string { return c.L.String() + " " + string(c.Op) + " " + c.R.String() }

// AndExpr is a conjunction of subexpressions (true when empty).
type AndExpr struct{ Terms []Expr }

// And conjoins expressions, flattening nested conjunctions.
func And(terms ...Expr) Expr {
	var flat []Expr
	for _, t := range terms {
		if t == nil {
			continue
		}
		if a, ok := t.(AndExpr); ok {
			flat = append(flat, a.Terms...)
			continue
		}
		if l, ok := t.(Lit); ok && l.Val.AsBool() {
			continue // drop TRUE terms
		}
		flat = append(flat, t)
	}
	switch len(flat) {
	case 0:
		return Lit{Val: rel.Bool(true)}
	case 1:
		return flat[0]
	}
	return AndExpr{Terms: flat}
}

// Cols implements Expr.
func (a AndExpr) Cols() []string { return mergeCols(a.Terms...) }

// String implements Expr.
func (a AndExpr) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = "(" + t.String() + ")"
	}
	return strings.Join(parts, " AND ")
}

// OrExpr is a disjunction of subexpressions (false when empty).
type OrExpr struct{ Terms []Expr }

// Or disjoins expressions.
func Or(terms ...Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	return OrExpr{Terms: terms}
}

// Cols implements Expr.
func (o OrExpr) Cols() []string { return mergeCols(o.Terms...) }

// String implements Expr.
func (o OrExpr) String() string {
	parts := make([]string, len(o.Terms))
	for i, t := range o.Terms {
		parts[i] = "(" + t.String() + ")"
	}
	return strings.Join(parts, " OR ")
}

// NotExpr negates a boolean subexpression.
type NotExpr struct{ E Expr }

// Not negates an expression.
func Not(e Expr) NotExpr { return NotExpr{E: e} }

// Cols implements Expr.
func (n NotExpr) Cols() []string { return n.E.Cols() }

// String implements Expr.
func (n NotExpr) String() string { return "NOT (" + n.E.String() + ")" }

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

// AddE builds L + R.
func AddE(l, r Expr) Arith { return Arith{Op: '+', L: l, R: r} }

// SubE builds L - R.
func SubE(l, r Expr) Arith { return Arith{Op: '-', L: l, R: r} }

// MulE builds L * R.
func MulE(l, r Expr) Arith { return Arith{Op: '*', L: l, R: r} }

// DivE builds L / R.
func DivE(l, r Expr) Arith { return Arith{Op: '/', L: l, R: r} }

// Cols implements Expr.
func (a Arith) Cols() []string { return mergeCols(a.L, a.R) }

// String implements Expr.
func (a Arith) String() string {
	return "(" + a.L.String() + " " + string(rune(a.Op)) + " " + a.R.String() + ")"
}

// Func applies a named builtin function; see funcs.go for the library.
type Func struct {
	Name string
	Args []Expr
}

// Call builds a function application.
func Call(name string, args ...Expr) Func { return Func{Name: name, Args: args} }

// Cols implements Expr.
func (f Func) Cols() []string { return mergeCols(f.Args...) }

// String implements Expr.
func (f Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// IsNullExpr tests a subexpression for NULL.
type IsNullExpr struct{ E Expr }

// IsNull builds "E IS NULL".
func IsNull(e Expr) IsNullExpr { return IsNullExpr{E: e} }

// Cols implements Expr.
func (n IsNullExpr) Cols() []string { return n.E.Cols() }

// String implements Expr.
func (n IsNullExpr) String() string { return "(" + n.E.String() + ") IS NULL" }

func mergeCols(es ...Expr) []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range es {
		if e == nil {
			continue
		}
		for _, c := range e.Cols() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// True is the constant TRUE predicate.
func True() Expr { return Lit{Val: rel.Bool(true)} }

// IsTrueLit reports whether e is the literal TRUE.
func IsTrueLit(e Expr) bool {
	l, ok := e.(Lit)
	return ok && l.Val.Kind == rel.KindBool && l.Val.AsBool()
}
