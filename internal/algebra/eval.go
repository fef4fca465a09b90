package algebra

import (
	"fmt"

	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// Env resolves the leaves of a plan during evaluation: stored tables
// (base tables, materialized views, caches) and named in-memory relations
// (diff instances and other intermediate bindings). Stored tables resolve
// to counting handles over the storage engine — the concrete *Handle
// rather than the storage.Table interface, because the executor rebinds
// handles to per-step counter shards via WithCounter.
type Env interface {
	// Table resolves a stored table by name.
	Table(name string) (*storage.Handle, error)
	// Bound resolves a named in-memory relation: Eval reads its tuples, a
	// compiled plan its columns (rel.Binding converts at most once).
	Bound(name string) (*rel.Binding, error)
}

// Eval evaluates the plan against the environment, returning a derived
// relation. Accesses to stored tables are charged to their cost counters;
// operations on derived data are free, matching the paper's cost model.
// The returned relation's tuples may alias stored rows and must not be
// mutated.
func Eval(n Node, env Env) (*rel.Relation, error) {
	switch x := n.(type) {
	case *Scan:
		return evalScan(x, env)
	case *Empty:
		return rel.NewRelation(x.Sch), nil
	case *RelRef:
		return evalRelRef(x, env)
	case *Select:
		return evalSelect(x, env)
	case *Project:
		return evalProject(x, env)
	case *Join:
		return evalJoin(x, env)
	case *SemiJoin:
		return evalSemi(x, env, true)
	case *AntiJoin:
		return evalSemi(x, env, false)
	case *GroupBy:
		return evalGroupBy(x, env)
	case *UnionAll:
		return evalUnion(x, env)
	default:
		return nil, fmt.Errorf("algebra: unknown node type %T", n)
	}
}

// aliasTuples presents rows as a Relation without copying, clamping the
// slice capacity so a later Add reallocates instead of writing into the
// shared backing array. Rows scanned from a table stay valid for the
// duration of a maintenance round: pre-state rows are frozen for the epoch,
// and a post-state read runs after the table's last apply (script order).
func aliasTuples(sch rel.Schema, rows []rel.Tuple) *rel.Relation {
	return &rel.Relation{Schema: sch, Tuples: rows[:len(rows):len(rows)]}
}

func evalScan(s *Scan, env Env) (*rel.Relation, error) {
	t, err := env.Table(s.Table)
	if err != nil {
		return nil, err
	}
	return aliasTuples(s.schema, t.Scan(s.St)), nil
}

func evalRelRef(r *RelRef, env Env) (*rel.Relation, error) {
	if r.Stored {
		t, err := env.Table(r.Name)
		if err != nil {
			return nil, err
		}
		return aliasTuples(r.Sch, t.Scan(r.St)), nil
	}
	bd, err := env.Bound(r.Name)
	if err != nil {
		return nil, err
	}
	return aliasTuples(r.Sch, bd.Relation().Tuples), nil
}

func evalSelect(s *Select, env Env) (*rel.Relation, error) {
	if sh, ok := shapeOf(s); ok {
		return evalStoredSelect(sh, env)
	}
	child, err := Eval(s.Child, env)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Compile(s.Pred, child.Schema)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(child.Schema)
	for _, t := range child.Tuples {
		if pred.EvalBool(t) {
			out.Add(t)
		}
	}
	return out, nil
}

// evalStoredSelect runs a σ-chain over a stored leaf. When the predicate
// carries column = literal equalities, the planner consults the index
// cardinality (uncharged catalog metadata) and takes the index probe —
// 1 lookup + p matching reads — whenever it is strictly cheaper than the
// n-read scan, so access counts never increase over the scan plan. The
// compiled path makes the identical decision (see compile.go), preserving
// counter parity between the two executors.
func evalStoredSelect(sh *probeShape, env Env) (*rel.Relation, error) {
	t, err := env.Table(sh.table)
	if err != nil {
		return nil, err
	}
	cols, vals, residual := expr.EqLiterals(sh.extra, sh.schema)
	if len(cols) > 0 {
		bare := make([]string, len(cols))
		for i, c := range cols {
			bare[i] = sh.toBare(c)
		}
		p, n, err := t.IndexCard(sh.st, bare, vals)
		if err != nil {
			return nil, err
		}
		if p+1 < n {
			rows, err := t.Lookup(sh.st, bare, vals)
			if err != nil {
				return nil, err
			}
			if expr.IsTrueLit(residual) {
				return aliasTuples(sh.schema, rows), nil
			}
			pred, err := expr.Compile(residual, sh.schema)
			if err != nil {
				return nil, err
			}
			out := rel.NewRelation(sh.schema)
			for _, r := range rows {
				if pred.EvalBool(r) {
					out.Add(r)
				}
			}
			return out, nil
		}
	}
	pred, err := expr.Compile(sh.extra, sh.schema)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(sh.schema)
	for _, r := range t.Scan(sh.st) {
		if pred.EvalBool(r) {
			out.Add(r)
		}
	}
	return out, nil
}

func evalProject(p *Project, env Env) (*rel.Relation, error) {
	child, err := Eval(p.Child, env)
	if err != nil {
		return nil, err
	}
	compiled := make([]*expr.Compiled, len(p.Items))
	for i, it := range p.Items {
		c, err := expr.Compile(it.E, child.Schema)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
	}
	out := rel.NewRelation(p.Schema())
	for _, t := range child.Tuples {
		nt := make(rel.Tuple, len(compiled))
		for i, c := range compiled {
			nt[i] = c.Eval(t)
		}
		out.Add(nt)
	}
	return out, nil
}

// probeTarget is a probeShape resolved against an environment, with the
// selection predicate split once: column = literal equalities fold into
// every index probe (narrowing it to the rows that also satisfy them, for
// the same single lookup charge), and the residual predicate is compiled
// once instead of per probe.
type probeTarget struct {
	table   *storage.Handle
	state   rel.State
	schema  rel.Schema // qualified output schema
	toBare  func(string) string
	litBare []string // bare names of literal-equality columns, folded into probes
	litVals []rel.Value
	pred    *expr.Compiled // residual extra predicate; nil when TRUE
}

func asProbe(n Node, env Env) (*probeTarget, bool) {
	sh, ok := shapeOf(n)
	if !ok {
		return nil, false
	}
	t, err := env.Table(sh.table)
	if err != nil {
		return nil, false
	}
	litCols, litVals, residual := expr.EqLiterals(sh.extra, sh.schema)
	var pred *expr.Compiled
	if !expr.IsTrueLit(residual) {
		if pred, err = expr.Compile(residual, sh.schema); err != nil {
			return nil, false
		}
	}
	litBare := make([]string, len(litCols))
	for i, c := range litCols {
		litBare[i] = sh.toBare(c)
	}
	return &probeTarget{
		table:   t,
		state:   sh.st,
		schema:  sh.schema,
		toBare:  sh.toBare,
		litBare: litBare,
		litVals: litVals,
		pred:    pred,
	}, true
}

func (p *probeTarget) lookup(attrs []string, vals []rel.Value) ([]rel.Tuple, error) {
	bare := make([]string, 0, len(attrs)+len(p.litBare))
	for _, a := range attrs {
		bare = append(bare, p.toBare(a))
	}
	bare = append(bare, p.litBare...)
	if len(p.litVals) > 0 {
		all := make([]rel.Value, 0, len(vals)+len(p.litVals))
		vals = append(append(all, vals...), p.litVals...)
	}
	rows, err := p.table.Lookup(p.state, bare, vals)
	if err != nil {
		return nil, err
	}
	if p.pred == nil {
		return rows, nil
	}
	var out []rel.Tuple
	for _, r := range rows {
		if p.pred.EvalBool(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

func evalJoin(j *Join, env Env) (*rel.Relation, error) {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	outSchema := j.Schema()
	lcols, rcols, residual := expr.EquiPairs(j.Pred, ls, rs)

	// Diff-driven short-circuit: if one side reads no stored data (it is a
	// pure diff computation), evaluate it first; an empty diff makes the
	// whole join free, as a diff-driven DBMS plan would.
	if !TouchesStored(j.Left) {
		left, err := Eval(j.Left, env)
		if err != nil {
			return nil, err
		}
		if left.Len() == 0 {
			return rel.NewRelation(outSchema), nil
		}
	} else if !TouchesStored(j.Right) {
		right, err := Eval(j.Right, env)
		if err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return rel.NewRelation(outSchema), nil
		}
	}

	concat := func(out *rel.Relation, lt, rt rel.Tuple) {
		nt := make(rel.Tuple, 0, len(lt)+len(rt))
		nt = append(nt, lt...)
		nt = append(nt, rt...)
		out.Add(nt)
	}

	if len(lcols) > 0 {
		// Index nested-loop against a stored right side.
		if probe, ok := asProbe(j.Right, env); ok {
			left, err := Eval(j.Left, env)
			if err != nil {
				return nil, err
			}
			lidx, err := left.Schema.Indices(lcols)
			if err != nil {
				return nil, err
			}
			var res *expr.CompiledPair
			if !expr.IsTrueLit(residual) {
				if res, err = expr.CompilePair(residual, ls, rs); err != nil {
					return nil, err
				}
			}
			out := rel.NewRelation(outSchema)
			vals := make([]rel.Value, len(lidx))
			for _, lt := range left.Tuples {
				for i, x := range lidx {
					vals[i] = lt[x]
				}
				if hasNull(vals) {
					continue
				}
				rows, err := probe.lookup(rcols, vals)
				if err != nil {
					return nil, err
				}
				for _, rt := range rows {
					if res == nil || res.EvalBool(lt, rt) {
						concat(out, lt, rt)
					}
				}
			}
			return out, nil
		}
		// Symmetric case: probe a stored left side from a derived right.
		if probe, ok := asProbe(j.Left, env); ok {
			right, err := Eval(j.Right, env)
			if err != nil {
				return nil, err
			}
			ridx, err := right.Schema.Indices(rcols)
			if err != nil {
				return nil, err
			}
			var res *expr.CompiledPair
			if !expr.IsTrueLit(residual) {
				if res, err = expr.CompilePair(residual, ls, rs); err != nil {
					return nil, err
				}
			}
			out := rel.NewRelation(outSchema)
			vals := make([]rel.Value, len(ridx))
			for _, rt := range right.Tuples {
				for i, x := range ridx {
					vals[i] = rt[x]
				}
				if hasNull(vals) {
					continue
				}
				rows, err := probe.lookup(lcols, vals)
				if err != nil {
					return nil, err
				}
				for _, lt := range rows {
					if res == nil || res.EvalBool(lt, rt) {
						concat(out, lt, rt)
					}
				}
			}
			return out, nil
		}
		// Hash join over two derived inputs.
		left, err := Eval(j.Left, env)
		if err != nil {
			return nil, err
		}
		right, err := Eval(j.Right, env)
		if err != nil {
			return nil, err
		}
		lidx, err := left.Schema.Indices(lcols)
		if err != nil {
			return nil, err
		}
		ridx, err := right.Schema.Indices(rcols)
		if err != nil {
			return nil, err
		}
		var res *expr.CompiledPair
		if !expr.IsTrueLit(residual) {
			if res, err = expr.CompilePair(residual, ls, rs); err != nil {
				return nil, err
			}
		}
		buckets := make(map[string][]rel.Tuple)
		for _, rt := range right.Tuples {
			k := rel.KeyOf(rt, ridx)
			buckets[k] = append(buckets[k], rt)
		}
		out := rel.NewRelation(outSchema)
		for _, lt := range left.Tuples {
			for _, rt := range buckets[rel.KeyOf(lt, lidx)] {
				if res == nil || res.EvalBool(lt, rt) {
					concat(out, lt, rt)
				}
			}
		}
		return out, nil
	}

	// Pure theta join: nested loop over materialized inputs.
	left, err := Eval(j.Left, env)
	if err != nil {
		return nil, err
	}
	right, err := Eval(j.Right, env)
	if err != nil {
		return nil, err
	}
	pred, err := expr.CompilePair(j.Pred, ls, rs)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(outSchema)
	for _, lt := range left.Tuples {
		for _, rt := range right.Tuples {
			if pred.EvalBool(lt, rt) {
				concat(out, lt, rt)
			}
		}
	}
	return out, nil
}

func evalSemi(n Node, env Env, keepMatching bool) (*rel.Relation, error) {
	var l, r Node
	var p expr.Expr
	if keepMatching {
		s := n.(*SemiJoin)
		l, r, p = s.Left, s.Right, s.Pred
	} else {
		a := n.(*AntiJoin)
		l, r, p = a.Left, a.Right, a.Pred
	}
	ls, rs := l.Schema(), r.Schema()
	lcols, rcols, residual := expr.EquiPairs(p, ls, rs)

	// Memoized right-side evaluation, so key-set-first ordering never
	// charges stored accesses twice.
	var rightRel *rel.Relation
	evalRight := func() (*rel.Relation, error) {
		if rightRel == nil {
			var err error
			rightRel, err = Eval(r, env)
			if err != nil {
				return nil, err
			}
		}
		return rightRel, nil
	}

	_, rightProbe := asProbe(r, env)

	// Key-set-first ordering: for a semijoin whose right (filter) side is
	// not index-probeable, that side is the small key set driving the
	// operation. Evaluate it first and return empty — without touching the
	// potentially expensive left side — when it is empty.
	if keepMatching && !rightProbe {
		right, err := evalRight()
		if err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return rel.NewRelation(ls), nil
		}
	}

	// Probe-left strategy: a semijoin of a stored left side against a small
	// derived key set probes the left index once per distinct right key,
	// reading only the matching stored rows. Only valid for pure equi
	// predicates.
	if keepMatching && !rightProbe && len(lcols) > 0 && expr.IsTrueLit(residual) {
		if probe, ok := asProbe(l, env); ok {
			right, err := evalRight()
			if err != nil {
				return nil, err
			}
			ridx, err := right.Schema.Indices(rcols)
			if err != nil {
				return nil, err
			}
			out := rel.NewRelation(ls)
			seenKey := map[string]bool{}
			emitted := map[string]bool{}
			vals := make([]rel.Value, len(ridx))
			for _, rt := range right.Tuples {
				for i, x := range ridx {
					vals[i] = rt[x]
				}
				if hasNull(vals) {
					continue
				}
				k := rel.TupleKey(vals)
				if seenKey[k] {
					continue
				}
				seenKey[k] = true
				rows, err := probe.lookup(lcols, vals)
				if err != nil {
					return nil, err
				}
				for _, lt := range rows {
					tk := rel.TupleKey(lt)
					if !emitted[tk] {
						emitted[tk] = true
						out.Add(lt)
					}
				}
			}
			return out, nil
		}
	}

	left, err := Eval(l, env)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(ls)
	if left.Len() == 0 {
		return out, nil
	}

	if len(lcols) > 0 {
		var res *expr.CompiledPair
		if !expr.IsTrueLit(residual) {
			if res, err = expr.CompilePair(residual, ls, rs); err != nil {
				return nil, err
			}
		}
		matchFn := func(lt rel.Tuple, rows []rel.Tuple) bool {
			for _, rt := range rows {
				if res == nil || res.EvalBool(lt, rt) {
					return true
				}
			}
			return false
		}
		lidx, err := left.Schema.Indices(lcols)
		if err != nil {
			return nil, err
		}
		if probe, ok := asProbe(r, env); ok {
			vals := make([]rel.Value, len(lidx))
			for _, lt := range left.Tuples {
				for i, x := range lidx {
					vals[i] = lt[x]
				}
				matched := false
				if !hasNull(vals) {
					rows, err := probe.lookup(rcols, vals)
					if err != nil {
						return nil, err
					}
					matched = matchFn(lt, rows)
				}
				if matched == keepMatching {
					out.Add(lt)
				}
			}
			return out, nil
		}
		right, err := evalRight()
		if err != nil {
			return nil, err
		}
		ridx, err := right.Schema.Indices(rcols)
		if err != nil {
			return nil, err
		}
		buckets := make(map[string][]rel.Tuple)
		for _, rt := range right.Tuples {
			k := rel.KeyOf(rt, ridx)
			buckets[k] = append(buckets[k], rt)
		}
		for _, lt := range left.Tuples {
			k := rel.KeyOf(lt, lidx)
			matched := matchFn(lt, buckets[k])
			if matched == keepMatching {
				out.Add(lt)
			}
		}
		return out, nil
	}

	// Non-equi: nested loop.
	right, err := evalRight()
	if err != nil {
		return nil, err
	}
	pred, err := expr.CompilePair(p, ls, rs)
	if err != nil {
		return nil, err
	}
	for _, lt := range left.Tuples {
		matched := false
		for _, rt := range right.Tuples {
			if pred.EvalBool(lt, rt) {
				matched = true
				break
			}
		}
		if matched == keepMatching {
			out.Add(lt)
		}
	}
	return out, nil
}

func evalUnion(u *UnionAll, env Env) (*rel.Relation, error) {
	left, err := Eval(u.Left, env)
	if err != nil {
		return nil, err
	}
	right, err := Eval(u.Right, env)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(u.Schema())
	for _, t := range left.Tuples {
		out.Add(append(append(rel.Tuple{}, t...), rel.Int(0)))
	}
	for _, t := range right.Tuples {
		out.Add(append(append(rel.Tuple{}, t...), rel.Int(1)))
	}
	return out, nil
}

func hasNull(vals []rel.Value) bool {
	for _, v := range vals {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// WithState returns a deep copy of the plan with every Scan and stored
// RelRef retargeted at the given table state. It is how the rule engine
// materializes Input_pre vs Input_post (Section 4).
func WithState(n Node, st rel.State) Node {
	switch x := n.(type) {
	case *Scan:
		c := *x
		c.St = st
		return &c
	case *RelRef:
		c := *x
		if c.Stored {
			c.St = st
		}
		return &c
	case *Select:
		return &Select{Child: WithState(x.Child, st), Pred: x.Pred}
	case *Project:
		return &Project{Child: WithState(x.Child, st), Items: x.Items}
	case *Join:
		return &Join{Left: WithState(x.Left, st), Right: WithState(x.Right, st), Pred: x.Pred}
	case *SemiJoin:
		return &SemiJoin{Left: WithState(x.Left, st), Right: WithState(x.Right, st), Pred: x.Pred}
	case *AntiJoin:
		return &AntiJoin{Left: WithState(x.Left, st), Right: WithState(x.Right, st), Pred: x.Pred}
	case *GroupBy:
		return &GroupBy{Child: WithState(x.Child, st), Keys: x.Keys, Aggs: x.Aggs}
	case *UnionAll:
		return &UnionAll{Left: WithState(x.Left, st), Right: WithState(x.Right, st), BranchAttr: x.BranchAttr}
	default:
		return n
	}
}
