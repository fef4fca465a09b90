package algebra

import (
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// aggState incrementally folds one aggregate over a group: acc is the
// running sum of a SUM or an AVG and the best value of a MIN or a MAX. The
// zero value is a state over no rows; the caller keeps the aggregate's
// function, which add and result take.
type aggState struct {
	count int64
	acc   rel.Value
}

func (a *aggState) add(fn AggFn, v rel.Value, isStar bool) {
	if isStar {
		a.count++
		return
	}
	if v.IsNull() {
		return
	}
	a.count++
	switch fn {
	case AggSum, AggAvg:
		if a.acc.IsNull() {
			a.acc = v
		} else {
			a.acc = rel.Add(a.acc, v)
		}
	case AggMin:
		if a.acc.IsNull() {
			a.acc = v
		} else if c, ok := v.Compare(a.acc); ok && c < 0 {
			a.acc = v
		}
	case AggMax:
		if a.acc.IsNull() {
			a.acc = v
		} else if c, ok := v.Compare(a.acc); ok && c > 0 {
			a.acc = v
		}
	}
}

func (a *aggState) result(fn AggFn) rel.Value {
	switch fn {
	case AggSum, AggMin, AggMax:
		return a.acc
	case AggCount:
		return rel.Int(a.count)
	case AggAvg:
		if a.count == 0 || a.acc.IsNull() {
			return rel.Null()
		}
		return rel.Float(a.acc.AsFloat() / float64(a.count))
	}
	return rel.Null()
}

// evalGroupBy hash-aggregates the child's rows; output tuple order follows
// first appearance of each group, making results deterministic.
func evalGroupBy(g *GroupBy, env Env) (*rel.Relation, error) {
	child, err := Eval(g.Child, env)
	if err != nil {
		return nil, err
	}
	keyIdx, err := child.Schema.Indices(g.Keys)
	if err != nil {
		return nil, err
	}
	compiled := make([]*expr.Compiled, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Arg == nil {
			continue
		}
		c, err := expr.Compile(a.Arg, child.Schema)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
	}

	type group struct {
		keyVals rel.Tuple
		states  []aggState
	}
	byKey := make(map[string]*group)
	var order []*group
	for _, t := range child.Tuples {
		k := rel.KeyOf(t, keyIdx)
		grp, ok := byKey[k]
		if !ok {
			kv := make(rel.Tuple, len(keyIdx))
			for i, j := range keyIdx {
				kv[i] = t[j]
			}
			grp = &group{keyVals: kv, states: make([]aggState, len(g.Aggs))}
			byKey[k] = grp
			order = append(order, grp)
		}
		for i, a := range g.Aggs {
			if a.Arg == nil {
				grp.states[i].add(a.Fn, rel.Null(), true)
			} else {
				grp.states[i].add(a.Fn, compiled[i].Eval(t), false)
			}
		}
	}

	attrs := append([]string(nil), g.Keys...)
	for _, a := range g.Aggs {
		attrs = append(attrs, a.As)
	}
	out := rel.NewRelation(rel.NewSchema(attrs, g.Keys))
	for _, grp := range order {
		nt := append(rel.Tuple{}, grp.keyVals...)
		for i := range grp.states {
			nt = append(nt, grp.states[i].result(g.Aggs[i].Fn))
		}
		out.Add(nt)
	}
	return out, nil
}
