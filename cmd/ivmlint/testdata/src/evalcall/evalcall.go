// Package evalcall is the seeded fixture for the evalcall analyzer: one
// deliberate violation, one blessed suppression, and a local function that
// shares the evaluator's name and is not flagged.
package evalcall

import "idivm/internal/algebra"

// read evaluates a plan through the interpreted oracle in production code.
func read(n algebra.Node, env algebra.Env) {
	algebra.Eval(n, env) // violation: a second evaluator
}

// check is a blessed exception.
func check(n algebra.Node, env algebra.Env) {
	//ivmlint:allow evalcall — fixture bless: a hand-written oracle
	algebra.Eval(n, env)
}

// Eval is a local function, not the algebra oracle.
func Eval() {}

func run() { Eval() }
