package algebra

import (
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// This file is the physical planner of both evaluators. Every access-path
// decision is made here, once: planJoin and planSemi pick a join or
// semijoin strategy (which side is probed, hashed or short-circuited, and
// whether a semijoin's key set is evaluated first), planProbe folds a stored
// leaf's literal equalities into its index probe, and useIndex is the
// index-vs-scan rule of a σ-chain over a stored leaf. The plan compiler
// (compile.go) turns these plans into columnar kernels and Eval (eval.go)
// runs them with row loops; neither chooses an access path of its own, so
// for every plan both make the same stored accesses through the same Handle
// entry points, and their access counters match byte for byte.

// probeShape is the environment-free description of a plan fragment that
// can be probed through a stored table's secondary index: a Scan,
// optionally wrapped in Selects, or a stored RelRef (possibly with renamed
// attributes). extra conjoins every σ predicate of the chain, over the
// node's qualified schema.
type probeShape struct {
	// table is the stored table the fragment bottoms out in.
	table string
	// st is the table state (pre/post) the fragment reads.
	st rel.State
	// schema is the fragment's qualified output schema.
	schema rel.Schema
	// toBare maps a qualified attribute of schema to the underlying
	// table's bare column name, which is what secondary indexes are
	// keyed by.
	toBare func(string) string
	// extra is the conjunction of every σ predicate wrapped around the
	// leaf (TRUE when the fragment is a bare leaf).
	extra expr.Expr
}

// shapeOf peels a chain of Selects off n and reports the probeShape of
// the stored leaf underneath, or ok=false when the fragment does not
// bottom out in a stored table (derived RelRefs, joins, projections...).
func shapeOf(n Node) (*probeShape, bool) {
	var preds []expr.Expr
	for {
		sel, ok := n.(*Select)
		if !ok {
			break
		}
		preds = append(preds, sel.Pred)
		n = sel.Child
	}
	switch x := n.(type) {
	case *Scan:
		return &probeShape{
			table:  x.Table,
			st:     x.St,
			schema: x.schema,
			toBare: x.BareAttr,
			extra:  expr.And(preds...),
		}, true
	case *RelRef:
		if !x.Stored {
			return nil, false
		}
		toBare := func(s string) string { return s }
		if len(x.Bare) > 0 {
			m := make(map[string]string, len(x.Bare))
			for i, a := range x.Sch.Attrs {
				m[a] = x.Bare[i]
			}
			toBare = func(s string) string {
				if b, ok := m[s]; ok {
					return b
				}
				return s
			}
		}
		return &probeShape{
			table:  x.Name,
			st:     x.St,
			schema: x.Sch,
			toBare: toBare,
			extra:  expr.And(preds...),
		}, true
	}
	return nil, false
}

// probePlan is an index probe of a stored leaf. Its probe attributes are
// bare column names, prepared once: the join columns, filled per probe, then
// the columns the leaf's σ-chain fixes to literals or parameters, which
// narrow every probe to the rows that also satisfy them for the same single
// lookup charge.
type probePlan struct {
	table    string
	st       rel.State
	schema   rel.Schema // the leaf's qualified output schema
	prep     rel.PrepLookup
	nJoin    int            // leading probe attributes that are join columns
	litVals  []rel.Value    // values of the trailing, literal probe attributes
	params   []expr.ParamAt // the literal probe attributes whose values are parameters, set per run
	residual expr.Expr      // the rest of the σ-chain; TRUE when nothing is left
	unique   bool           // the probe covers the leaf's key and no σ is left: ≤ 1 match per probe
}

// planProbe plans a probe of sh on joinCols, qualified names over sh.schema;
// a σ-chain probed on its literals alone passes none.
func planProbe(sh *probeShape, joinCols []string) probePlan {
	litCols, litVals, params, residual := expr.EqLiterals(sh.extra, sh.schema)
	attrs := make([]string, 0, len(joinCols)+len(litCols))
	for _, a := range joinCols {
		attrs = append(attrs, sh.toBare(a))
	}
	for _, a := range litCols {
		attrs = append(attrs, sh.toBare(a))
	}
	key := sh.schema.Key
	return probePlan{table: sh.table, st: sh.st, schema: sh.schema, prep: rel.PrepareLookup(attrs),
		nJoin: len(joinCols), litVals: litVals, params: params, residual: residual,
		unique: len(key) > 0 && expr.IsTrueLit(residual) && rel.Subset(key, append(append([]string(nil), joinCols...), litCols...))}
}

// useIndex is the index-vs-scan rule of a σ-chain over a stored leaf,
// planned as a probe on its literals: the probe (1 lookup + p reads) is
// taken exactly when it is strictly cheaper than the n-read scan, so the
// choice never charges more than the scan. p and n are uncharged catalog
// metadata of the state read, for vals, the literal values of this run, so
// both evaluators always choose alike, and a compiled plan run with new
// parameter values chooses anew. A unique probe matches p ≤ 1 rows, so over
// more than two rows it is taken without counting p.
func useIndex(t *storage.Handle, pp *probePlan, vals []rel.Value) (bool, error) {
	if len(vals) == 0 {
		return false, nil
	}
	if pp.unique && t.StateLen(pp.st) > 2 {
		return true, nil
	}
	p, n, err := t.IndexCard(pp.st, pp.prep.Attrs(), vals)
	return err == nil && p+1 < n, err
}

// joinStrategy is the access path of a Join.
type joinStrategy uint8

const (
	joinProbeRight joinStrategy = iota // derived left probes stored right
	joinProbeLeft                      // derived right probes stored left
	joinHash                           // hash join over two derived inputs
	joinNested                         // nested-loop theta join
)

// joinPlan is the physical plan of a Join.
type joinPlan struct {
	strategy joinStrategy
	// lidx and ridx pair the equi-join columns' positions in the left and
	// right input schemas (none under joinNested).
	lidx, ridx []int
	// residual is what the equi pairs leave of the predicate — the whole
	// predicate under joinNested; TRUE when nothing is left.
	residual expr.Expr
	// probe is the stored side's probe under joinProbeRight/joinProbeLeft.
	probe *probePlan
	// shortLeft/shortRight mark a side that reads no stored data (a pure
	// diff computation): it is evaluated first, and when it is empty the
	// whole join is, for free.
	shortLeft, shortRight bool
}

// planJoin plans j: a stored right side is probed from the left, else a
// stored left side from the right, else two derived sides are hashed; with
// no equi pair the join is a nested loop.
func planJoin(j *Join) (joinPlan, error) {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	lcols, rcols, residual := expr.EquiPairs(j.Pred, ls, rs)
	p := joinPlan{residual: residual, shortLeft: !TouchesStored(j.Left)}
	p.shortRight = !p.shortLeft && !TouchesStored(j.Right)
	if len(lcols) == 0 {
		p.strategy, p.residual = joinNested, j.Pred
		return p, nil
	}
	var err error
	if p.lidx, p.ridx, err = equiIndices(ls, rs, lcols, rcols); err != nil {
		return p, err
	}
	var pp probePlan
	if sh, ok := shapeOf(j.Right); ok {
		p.strategy, pp = joinProbeRight, planProbe(sh, rcols)
	} else if sh, ok := shapeOf(j.Left); ok {
		p.strategy, pp = joinProbeLeft, planProbe(sh, lcols)
	} else {
		p.strategy = joinHash
		return p, nil
	}
	p.probe = &pp
	return p, nil
}

// semiStrategy is the access path of a semijoin or antijoin.
type semiStrategy uint8

const (
	semiProbeLeft  semiStrategy = iota // distinct right keys probe the stored left
	semiProbeRight                     // each left tuple probes the stored right
	semiHash                           // hash the right, test each left tuple
	semiNested                         // nested loop
)

// semiPlan is the physical plan of a semijoin or antijoin.
type semiPlan struct {
	strategy semiStrategy
	// keysetFirst evaluates the right side first, and an empty right side
	// is an empty semijoin without touching the left: a semijoin whose right
	// (filter) side cannot be probed is driven by that key set.
	keysetFirst bool
	lidx, ridx  []int     // as in joinPlan
	residual    expr.Expr // as in joinPlan; TRUE under semiProbeLeft
	probe       *probePlan
}

// planSemi plans a semijoin or antijoin. A key-set-first semijoin with a
// pure equi predicate probes a stored left side once per distinct right
// key; otherwise a stored right side is probed per left tuple, else the
// right side is hashed; with no equi pair it is a nested loop.
func planSemi(s *SemiJoin) (semiPlan, error) {
	ls, rs := s.Left.Schema(), s.Right.Schema()
	lcols, rcols, residual := expr.EquiPairs(s.Pred, ls, rs)
	rsh, rightProbe := shapeOf(s.Right)
	p := semiPlan{keysetFirst: !s.Anti && !rightProbe, residual: residual}
	if len(lcols) == 0 {
		p.strategy, p.residual = semiNested, s.Pred
		return p, nil
	}
	var err error
	if p.lidx, p.ridx, err = equiIndices(ls, rs, lcols, rcols); err != nil {
		return p, err
	}
	var pp probePlan
	if lsh, ok := shapeOf(s.Left); ok && p.keysetFirst && expr.IsTrueLit(residual) {
		p.strategy, pp = semiProbeLeft, planProbe(lsh, lcols)
	} else if rightProbe {
		p.strategy, pp = semiProbeRight, planProbe(rsh, rcols)
	} else {
		p.strategy = semiHash
		return p, nil
	}
	p.probe = &pp
	return p, nil
}

// equiIndices resolves equi pairs to positions in the two input schemas.
func equiIndices(ls, rs rel.Schema, lcols, rcols []string) (lidx, ridx []int, err error) {
	if lidx, err = ls.Indices(lcols); err != nil {
		return nil, nil, err
	}
	ridx, err = rs.Indices(rcols)
	return lidx, ridx, err
}
