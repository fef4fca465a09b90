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
	// A stored leaf is a σ-chain over it of length zero.
	if sh, ok := shapeOf(n); ok {
		return evalStoredSelect(sh, env)
	}
	switch x := n.(type) {
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
		return evalSemi(x, env)
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

func evalRelRef(r *RelRef, env Env) (*rel.Relation, error) {
	bd, err := env.Bound(r.Name)
	if err != nil {
		return nil, err
	}
	return aliasTuples(r.Sch, bd.Relation().Tuples), nil
}

func evalSelect(s *Select, env Env) (*rel.Relation, error) {
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

// evalStoredSelect runs a σ-chain over a stored leaf (a bare leaf is one of
// length zero): the probe on the chain's literal equalities when useIndex
// takes it, filtered by what is left of the chain, else a scan filtered by
// the whole chain. Like every Eval path, it takes no parameters.
func evalStoredSelect(sh *probeShape, env Env) (*rel.Relation, error) {
	pp := planProbe(sh, nil)
	if len(pp.params) > 0 {
		return nil, fmt.Errorf("algebra: Eval of parameter %s", pp.params[0].Param)
	}
	t, err := env.Table(pp.table)
	if err != nil {
		return nil, err
	}
	index, err := useIndex(t, &pp, pp.litVals)
	if err != nil {
		return nil, err
	}
	var rows []rel.Tuple
	filter := sh.extra
	if index {
		if rows, err = t.LookupInto(pp.st, pp.prep, pp.litVals, nil); err != nil {
			return nil, err
		}
		filter = pp.residual
	} else {
		rows = t.Scan(pp.st)
	}
	if expr.IsTrueLit(filter) {
		return aliasTuples(sh.schema, rows), nil
	}
	pred, err := expr.Compile(filter, sh.schema)
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

// openProbe compiles pp and resolves its table for one evaluation.
func openProbe(pp *probePlan, env Env) (*cProbe, *storage.Handle, error) {
	pr, err := compileProbe(*pp, nil)
	if err != nil {
		return nil, nil, err
	}
	t, err := pr.resolve(env)
	return pr, t, err
}

// probeRow probes pr's table with row's idx columns as the join values; a
// NULL among them never joins and charges nothing.
func probeRow(pr *cProbe, t *storage.Handle, row rel.Tuple, idx []int) ([]rel.Tuple, error) {
	for k, x := range idx {
		if row[x].IsNull() {
			return nil, nil
		}
		pr.valsBuf[k] = row[x]
	}
	return pr.lookup(t)
}

func evalJoin(j *Join, env Env) (*rel.Relation, error) {
	pl, err := planJoin(j)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(j.Schema())
	// Diff-driven short-circuit: the side that reads no stored data is
	// evaluated first, and an empty diff makes the whole join free, as a
	// diff-driven DBMS plan would.
	var left, right *rel.Relation
	if pl.shortLeft {
		if left, err = Eval(j.Left, env); err != nil {
			return nil, err
		}
		if left.Len() == 0 {
			return out, nil
		}
	} else if pl.shortRight {
		if right, err = Eval(j.Right, env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return out, nil
		}
	}
	if left == nil && pl.strategy != joinProbeLeft {
		if left, err = Eval(j.Left, env); err != nil {
			return nil, err
		}
	}
	if right == nil && pl.strategy != joinProbeRight {
		if right, err = Eval(j.Right, env); err != nil {
			return nil, err
		}
	}
	match, err := compilePair(pl.residual, j.Left.Schema(), j.Right.Schema(), nil)
	if err != nil {
		return nil, err
	}
	emit := func(lt, rt rel.Tuple) {
		if match == nil || match.EvalBool(lt, rt) {
			out.Add(append(append(make(rel.Tuple, 0, len(lt)+len(rt)), lt...), rt...))
		}
	}
	switch pl.strategy {
	case joinProbeRight, joinProbeLeft:
		pr, t, err := openProbe(pl.probe, env)
		if err != nil {
			return nil, err
		}
		driving, idx := left, pl.lidx
		if pl.strategy == joinProbeLeft {
			driving, idx = right, pl.ridx
		}
		for _, dt := range driving.Tuples {
			rows, err := probeRow(pr, t, dt, idx)
			if err != nil {
				return nil, err
			}
			for _, st := range rows {
				if pl.strategy == joinProbeRight {
					emit(dt, st)
				} else {
					emit(st, dt)
				}
			}
		}
	case joinHash:
		buckets := make(map[string][]rel.Tuple)
		for _, rt := range right.Tuples {
			k := rel.KeyOf(rt, pl.ridx)
			buckets[k] = append(buckets[k], rt)
		}
		for _, lt := range left.Tuples {
			for _, rt := range buckets[rel.KeyOf(lt, pl.lidx)] {
				emit(lt, rt)
			}
		}
	default:
		for _, lt := range left.Tuples {
			for _, rt := range right.Tuples {
				emit(lt, rt)
			}
		}
	}
	return out, nil
}

// evalSemi evaluates a semijoin or antijoin.
func evalSemi(s *SemiJoin, env Env) (*rel.Relation, error) {
	pl, err := planSemi(s)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(s.Left.Schema())
	var right *rel.Relation
	if pl.keysetFirst {
		if right, err = Eval(s.Right, env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return out, nil
		}
	}
	var pr *cProbe
	var t *storage.Handle
	if pl.probe != nil {
		if pr, t, err = openProbe(pl.probe, env); err != nil {
			return nil, err
		}
	}
	if pl.strategy == semiProbeLeft {
		// Each distinct right key probes the stored left once; each left
		// tuple is emitted once, in first-probe order.
		seen, emitted := map[string]bool{}, map[string]bool{}
		for _, rt := range right.Tuples {
			if k := rel.KeyOf(rt, pl.ridx); !seen[k] {
				seen[k] = true
				rows, err := probeRow(pr, t, rt, pl.ridx)
				if err != nil {
					return nil, err
				}
				for _, lt := range rows {
					if tk := rel.TupleKey(lt); !emitted[tk] {
						emitted[tk] = true
						out.Add(lt)
					}
				}
			}
		}
		return out, nil
	}

	left, err := Eval(s.Left, env)
	if err != nil {
		return nil, err
	}
	if left.Len() == 0 {
		return out, nil
	}
	if right == nil && pl.strategy != semiProbeRight {
		if right, err = Eval(s.Right, env); err != nil {
			return nil, err
		}
	}
	match, err := compilePair(pl.residual, s.Left.Schema(), s.Right.Schema(), nil)
	if err != nil {
		return nil, err
	}
	var buckets map[string][]rel.Tuple
	if pl.strategy == semiHash {
		buckets = make(map[string][]rel.Tuple)
		for _, rt := range right.Tuples {
			k := rel.KeyOf(rt, pl.ridx)
			buckets[k] = append(buckets[k], rt)
		}
	}
	for _, lt := range left.Tuples {
		var rows []rel.Tuple
		switch pl.strategy {
		case semiProbeRight:
			if rows, err = probeRow(pr, t, lt, pl.lidx); err != nil {
				return nil, err
			}
		case semiHash:
			rows = buckets[rel.KeyOf(lt, pl.lidx)]
		default:
			rows = right.Tuples
		}
		matched := false
		for _, rt := range rows {
			if match == nil || match.EvalBool(lt, rt) {
				matched = true
				break
			}
		}
		if matched != s.Anti {
			out.Add(lt)
		}
	}
	return out, nil
}

func evalUnion(u *UnionAll, env Env) (*rel.Relation, error) {
	out := rel.NewRelation(u.Schema())
	for i, b := range u.Branches {
		r, err := Eval(b, env)
		if err != nil {
			return nil, err
		}
		for _, t := range r.Tuples {
			if u.BranchAttr != "" {
				t = append(t[:len(t):len(t)], rel.Int(int64(i)))
			}
			out.Add(t)
		}
	}
	return out, nil
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
	}
	return MapChildren(n, func(c Node) Node { return WithState(c, st) })
}
