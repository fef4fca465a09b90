// One parse per statement shape. A statement's shape is its token stream
// with keywords upper-cased and every number and string literal replaced by
// a typed slot: `SELECT a FROM t WHERE b = 3` and `select a from t where
// b = 4` share one, `... WHERE b = 3.0` and `... WHERE b = '3'` do not.
// Every parse yields a template — the plan with a parameter (expr.Param) in
// each slot — and the statement's literal values; the parser never sees a
// literal's value in the plan, so the template serves every statement of
// the shape. Parse keeps the template per shape in the catalog's db.Memo and
// answers a statement by binding its literals into a copy of the template;
// Run compiles the template once per read state and binds a statement's
// literals into the compiled plan's parameters.

package sqlview

import (
	"slices"
	"sync/atomic"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// memoCatalog is a Catalog that owns a store for templates; *db.Database
// is one.
type memoCatalog interface {
	Memo() *db.Memo
}

// slot is a template's record of one of the statement's literals: its
// kind, and whether a minus sign just before it negates it. The template
// plan reads the i-th literal's value as parameter i (expr.Param).
type slot struct {
	kind litKind
	neg  bool
}

// template is one shape's parse: the view with a parameter in place of
// every literal, each literal's slot, and the tables its FROM clause
// resolved, each with a handle of the stored table it resolved to: a plan
// holds table names and schemas, not handles, so a later statement binds
// wherever its catalog's handle fronts the same table — a catalog may hand
// out a new handle per call (db.Uncharged does). Its plan and slots are
// immutable once stored, so binds share them freely. idle holds, per read
// state, the template's compiled plan while no read runs it (Run).
type template struct {
	name    string
	plan    algebra.Node
	slots   []slot // by literal index
	tables  []string
	handles []*storage.Handle
	idle    [2]atomic.Pointer[algebra.ExecPlan] // by rel.State
}

// Run runs fn on a plan of src compiled to read its stored tables in state
// st, and reports whether that plan was a hit: the compiled plan of src's
// shape, idle and now run with src's literals as its parameters. Otherwise
// the plan is compiled for this read from src's template, which keeps it for
// the next read of the shape once fn returns — unless another read's copy
// came back first. A compiled plan is checked out while fn runs, so it never
// runs on two goroutines at once. Errors are never kept.
func Run(src string, cat Catalog, st rel.State, fn func(*algebra.ExecPlan) (*rel.Relation, error)) (r *rel.Relation, hit bool, err error) {
	var valBuf [8]rel.Value
	t, vals, err := find(src, cat, valBuf[:0])
	if err != nil {
		return nil, false, err
	}
	p := t.idle[st].Swap(nil)
	if hit = p != nil; !hit {
		if p, err = algebra.Compile(algebra.WithState(t.plan, st)); err != nil {
			return nil, false, err
		}
	}
	p.SetParams(vals)
	defer t.idle[st].CompareAndSwap(nil, p)
	r, err = fn(p)
	return r, hit, err
}

// find returns src's template and its literal values, appended to vals. A
// catalog that owns a db.Memo is asked first: src is scanned once, building
// no tokens and no strings, for its shape key and its literals, and a stored
// template of the shape whose tables still resolve to the same stored tables
// is the answer. Otherwise src is parsed, and its template, when every
// literal reached the plan, stored in place of any stale one.
func find(src string, cat Catalog, vals []rel.Value) (*template, []rel.Value, error) {
	mc, ok := cat.(memoCatalog)
	if !ok {
		return parseTemplate(src, cat)
	}
	var keyBuf [256]byte
	var litBuf [8]literal
	key, lits, err := scan(src, keyBuf[:0], litBuf[:0], nil)
	if err != nil {
		return nil, nil, err
	}
	memo := mc.Memo()
	if e, ok := memo.Get(key); ok {
		if t, ok := e.(*template); ok && t.resolves(cat) {
			if vals, ok := t.values(src, lits, vals); ok {
				return t, vals, nil
			}
		}
	}
	t, parsed, err := parseTemplate(src, cat)
	if err != nil {
		return nil, nil, err
	}
	seen := make([]bool, len(parsed))
	t.bind(parsed, seen)
	if !slices.Contains(seen, false) {
		memo.Put(string(key), t)
	}
	return t, parsed, nil
}

// parseTemplate lexes and parses src into its template and its literal
// values.
func parseTemplate(src string, cat Catalog) (*template, []rel.Value, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, tok := range toks {
		if tok.kind == tokNumber || tok.kind == tokString {
			n++
		}
	}
	p := &parser{toks: toks, cat: cat, slots: make([]slot, n), vals: make([]rel.Value, n)}
	v, err := p.parse()
	if err != nil {
		return nil, nil, err
	}
	t := &template{name: v.Name, plan: v.Plan, slots: p.slots}
	for _, s := range p.sources {
		t.tables = append(t.tables, s.table)
		t.handles = append(t.handles, s.handle)
	}
	return t, p.vals, nil
}

// resolves reports whether every table of the template still resolves in
// cat to the stored table it was parsed against.
func (t *template) resolves(cat Catalog) bool {
	for i, name := range t.tables {
		if h, err := cat.Table(name); err != nil || !h.SameTable(t.handles[i]) {
			return false
		}
	}
	return true
}

// values appends the values of src's literals, read as the template's slots,
// to vals; ok is false when a literal has no value (an int out of range) or
// the number of src's literals is not the number of slots.
func (t *template) values(src string, lits []literal, vals []rel.Value) ([]rel.Value, bool) {
	if len(lits) != len(t.slots) {
		return vals, false
	}
	for i, s := range t.slots {
		v, ok := literalValue(s.kind, lits[i].text(src), s.neg)
		if !ok {
			return vals, false
		}
		vals = append(vals, v)
	}
	return vals, true
}

// bind returns the template's view with vals in its parameters, and marks
// in seen, when set, each parameter the plan holds. It allocates the nodes
// and expressions on the paths to the parameters and the View; the rest of
// the plan is the template's.
func (t *template) bind(vals []rel.Value, seen []bool) *View {
	b := binder{vals: vals, seen: seen}
	plan, _ := b.node(t.plan)
	return &View{Name: t.name, Plan: plan}
}

// binder rebuilds a template plan with a statement's literal values in its
// parameters. Each method returns its input as it is when nothing under it
// changed. It knows every node and expression the parser builds.
type binder struct {
	vals []rel.Value // by literal index
	seen []bool
}

func (b *binder) node(n algebra.Node) (algebra.Node, bool) {
	switch x := n.(type) {
	case *algebra.Select:
		child, cc := b.node(x.Child)
		pred, pc := b.expr(x.Pred)
		if !cc && !pc {
			return x, false
		}
		return &algebra.Select{Child: child, Pred: pred}, true
	case *algebra.Join:
		l, lc := b.node(x.Left)
		r, rc := b.node(x.Right)
		pred, pc := b.expr(x.Pred)
		if !lc && !rc && !pc {
			return x, false
		}
		return &algebra.Join{Left: l, Right: r, Pred: pred}, true
	case *algebra.Project:
		child, changed := b.node(x.Child)
		items, copied := x.Items, false
		for i, it := range x.Items {
			if e, ec := b.expr(it.E); ec {
				if !copied {
					items, copied = append([]algebra.ProjItem(nil), x.Items...), true
				}
				items[i].E = e
			}
		}
		if !changed && !copied {
			return x, false
		}
		return &algebra.Project{Child: child, Items: items}, true
	case *algebra.GroupBy:
		child, changed := b.node(x.Child)
		aggs, copied := x.Aggs, false
		for i, a := range x.Aggs {
			if a.Arg == nil {
				continue
			}
			if e, ec := b.expr(a.Arg); ec {
				if !copied {
					aggs, copied = append([]algebra.Agg(nil), x.Aggs...), true
				}
				aggs[i].Arg = e
			}
		}
		if !changed && !copied {
			return x, false
		}
		return &algebra.GroupBy{Child: child, Keys: x.Keys, Aggs: aggs}, true
	}
	return n, false // a Scan
}

func (b *binder) expr(e expr.Expr) (expr.Expr, bool) {
	switch x := e.(type) {
	case expr.Param:
		if b.seen != nil {
			b.seen[x.I] = true
		}
		return expr.V(b.vals[x.I]), true
	case expr.Cmp:
		l, lc := b.expr(x.L)
		r, rc := b.expr(x.R)
		if !lc && !rc {
			return e, false
		}
		return expr.Cmp{Op: x.Op, L: l, R: r}, true
	case expr.Arith:
		l, lc := b.expr(x.L)
		r, rc := b.expr(x.R)
		if !lc && !rc {
			return e, false
		}
		return expr.Arith{Op: x.Op, L: l, R: r}, true
	case expr.NotExpr:
		if in, c := b.expr(x.E); c {
			return expr.NotExpr{E: in}, true
		}
	case expr.IsNullExpr:
		if in, c := b.expr(x.E); c {
			return expr.IsNullExpr{E: in}, true
		}
	case expr.AndExpr:
		if ts, c := b.exprs(x.Terms); c {
			return expr.AndExpr{Terms: ts}, true
		}
	case expr.OrExpr:
		if ts, c := b.exprs(x.Terms); c {
			return expr.OrExpr{Terms: ts}, true
		}
	case expr.Func:
		if as, c := b.exprs(x.Args); c {
			return expr.Func{Name: x.Name, Args: as}, true
		}
	}
	return e, false
}

// exprs binds a list of expressions, copying it only if one changed.
func (b *binder) exprs(es []expr.Expr) ([]expr.Expr, bool) {
	out, copied := es, false
	for i, e := range es {
		if be, c := b.expr(e); c {
			if !copied {
				out, copied = append([]expr.Expr(nil), es...), true
			}
			out[i] = be
		}
	}
	return out, copied
}
