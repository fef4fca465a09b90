package expr

import (
	"math"
	"strings"

	"idivm/internal/rel"
)

// builtins is the scalar function library available to generalized
// projections (the π with functions of QSPJADU). Each entry builds a
// function's evaluator from its argument evaluators once, at compile time;
// a call at an arity the function does not take compiles to its constant
// result (NULL, or 0 for notnull).
var builtins = map[string]func(args []evaluator) evaluator{
	"abs": unary(func(v rel.Value) rel.Value {
		if !v.IsNumeric() {
			return rel.Null()
		}
		if v.Kind == rel.KindInt {
			i := v.AsInt()
			if i < 0 {
				i = -i
			}
			return rel.Int(i)
		}
		return rel.Float(math.Abs(v.AsFloat()))
	}),
	"lower": unary(func(v rel.Value) rel.Value {
		if v.Kind != rel.KindString {
			return rel.Null()
		}
		return rel.String(strings.ToLower(v.Text()))
	}),
	"upper": unary(func(v rel.Value) rel.Value {
		if v.Kind != rel.KindString {
			return rel.Null()
		}
		return rel.String(strings.ToUpper(v.Text()))
	}),
	"length": unary(func(v rel.Value) rel.Value {
		if v.Kind != rel.KindString {
			return rel.Null()
		}
		return rel.Int(int64(len(v.Text())))
	}),
	"round": unary(func(v rel.Value) rel.Value {
		if !v.IsNumeric() {
			return rel.Null()
		}
		return rel.Float(math.Round(v.AsFloat()))
	}),
	"mod": func(args []evaluator) evaluator {
		if len(args) != 2 {
			return constant(rel.Null())
		}
		a, b := args[0], args[1]
		return func(l, r rel.Tuple) rel.Value {
			x, y := a(l, r), b(l, r)
			if x.Kind != rel.KindInt || y.Kind != rel.KindInt || y.AsInt() == 0 {
				return rel.Null()
			}
			return rel.Int(x.AsInt() % y.AsInt())
		}
	},
	// keyeq(a, b) is a.KeyEqual(b), the equality stored tables index under:
	// unlike =, it tells 2^53 from 2^53+1, and NaN and NULL equal themselves.
	// The π rules' change guard (σ_isupd) tests post = pre with it.
	"keyeq": func(args []evaluator) evaluator {
		if len(args) != 2 {
			return constant(rel.Null())
		}
		a, b := args[0], args[1]
		return func(l, r rel.Tuple) rel.Value { return rel.Bool(a(l, r).KeyEqual(b(l, r))) }
	},
	// notnull(x) is 1 when x is non-NULL and 0 otherwise; the incremental
	// COUNT rules use it to track per-tuple count contributions.
	"notnull": func(args []evaluator) evaluator {
		if len(args) != 1 {
			return constant(rel.Int(0))
		}
		a := args[0]
		return func(l, r rel.Tuple) rel.Value {
			if a(l, r).IsNull() {
				return rel.Int(0)
			}
			return rel.Int(1)
		}
	},
	"coalesce": func(args []evaluator) evaluator {
		return func(l, r rel.Tuple) rel.Value {
			for _, a := range args {
				if v := a(l, r); !v.IsNull() {
					return v
				}
			}
			return rel.Null()
		}
	},
	"concat": func(args []evaluator) evaluator {
		return func(l, r rel.Tuple) rel.Value {
			var b strings.Builder
			for _, a := range args {
				v := a(l, r)
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
		}
	},
	"greatest": extreme(1),
	"least":    extreme(-1),
}

// unary builds a one-argument builtin from its per-value body.
func unary(f func(rel.Value) rel.Value) func([]evaluator) evaluator {
	return func(args []evaluator) evaluator {
		if len(args) != 1 {
			return constant(rel.Null())
		}
		a := args[0]
		return func(l, r rel.Tuple) rel.Value { return f(a(l, r)) }
	}
}

// extreme builds greatest (sign 1) or least (sign -1): the first argument,
// replaced by each later one that compares beyond it in that direction.
// A NULL first argument is never replaced, since NULL compares with nothing.
func extreme(sign int) func([]evaluator) evaluator {
	return func(args []evaluator) evaluator {
		if len(args) == 0 {
			return constant(rel.Null())
		}
		return func(l, r rel.Tuple) rel.Value {
			best := args[0](l, r)
			for _, a := range args[1:] {
				v := a(l, r)
				if c, ok := v.Compare(best); ok && c*sign > 0 {
					best = v
				}
			}
			return best
		}
	}
}

// HasBuiltin reports whether a scalar function with the given name exists.
func HasBuiltin(name string) bool {
	_, ok := builtins[strings.ToLower(name)]
	return ok
}
