// One parse per statement shape. A statement's shape is its token stream
// with keywords upper-cased and every number and string literal replaced by
// a typed slot: `SELECT a FROM t WHERE b = 3` and `select a from t where
// b = 4` share one, `... WHERE b = 3.0` and `... WHERE b = '3'` do not.
// Parse keeps a template per shape in the catalog's db.Memo — the plan
// parsed with a placeholder in each slot — and answers a later statement
// of the shape by binding its literals into a copy of the template.

package sqlview

import (
	"fmt"

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

// slot is a template's placeholder for the statement's i-th literal,
// negated when a minus sign comes just before it. No slot leaves the
// package: bind replaces each with its literal's value.
type slot struct {
	i    int
	kind litKind
	neg  bool
}

// Cols implements expr.Expr.
func (s slot) Cols() []string { return nil }

// String implements expr.Expr.
func (s slot) String() string { return fmt.Sprintf("?%d%c", s.i, s.kind) }

// template is one shape's parse: the view with a slot in place of every
// literal, each literal's slot, and the tables its FROM clause resolved,
// each with a handle of the stored table it resolved to: a plan holds table
// names and schemas, not handles, so a later parse binds wherever its
// catalog's handle fronts the same table — a catalog may hand out a new
// handle per call (db.Uncharged does). It is immutable once stored, so binds
// share it freely.
type template struct {
	name    string
	plan    algebra.Node
	slots   []slot // by literal index
	tables  []string
	handles []*storage.Handle
}

// parseShape is Parse over a catalog that owns memo. One scan of src
// yields its shape key and its literals, building no tokens and no
// strings. A stored template of the shape whose tables still resolve to
// the same stored tables is bound to the literals; otherwise src is parsed
// in full and, when its shape can be templated, the template is stored,
// replacing any stale one. Errors are never kept.
func parseShape(src string, cat Catalog, memo *db.Memo) (*View, error) {
	var keyBuf [256]byte
	var litBuf [8]literal
	key, lits, err := scan(src, keyBuf[:0], litBuf[:0], nil)
	if err != nil {
		return nil, err
	}
	if e, ok := memo.Get(key); ok {
		if t, ok := e.(*template); ok {
			if v := t.bind(src, lits, cat, nil); v != nil {
				return v, nil
			}
		}
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	v, err := (&parser{toks: toks, cat: cat}).parse()
	if err != nil {
		return nil, err
	}
	if t := newTemplate(toks, cat, src, lits, v); t != nil {
		memo.Put(string(key), t)
	}
	return v, nil
}

// newTemplate parses toks, the tokens of src, with a slot in place of
// each literal, and returns the template — or nil when the shape cannot be
// templated: the template parse fails, some literal does not reach the
// plan through the nodes and expressions bind rebuilds, or binding src's
// own literals does not give back want, the full parse of src.
func newTemplate(toks []token, cat Catalog, src string, lits []literal, want *View) *template {
	p := &parser{toks: toks, cat: cat, slots: make(map[int]slot, len(lits))}
	var order []int // the literal tokens' indexes
	for i, tok := range toks {
		if tok.kind == tokNumber || tok.kind == tokString {
			p.slots[i] = slot{i: len(order), kind: tok.lit}
			order = append(order, i)
		}
	}
	if len(order) != len(lits) {
		return nil
	}
	v, err := p.parse()
	if err != nil {
		return nil
	}
	t := &template{name: v.Name, plan: v.Plan}
	for _, i := range order {
		t.slots = append(t.slots, p.slots[i]) // with the sign the parse gave it
	}
	for _, s := range p.sources {
		t.tables = append(t.tables, s.table)
		t.handles = append(t.handles, s.handle)
	}
	seen := make([]bool, len(lits))
	got := t.bind(src, lits, cat, seen)
	if got == nil || got.Name != want.Name || got.Plan.String() != want.Plan.String() {
		return nil
	}
	for _, reached := range seen {
		if !reached {
			return nil
		}
	}
	return t
}

// bind returns the template's view with src's literals in its slots, or
// nil when a table of the template no longer resolves to the stored table it
// was parsed against or a literal has no value (an int out of range). It
// allocates the nodes and expressions on the paths to the slots and the
// View; the rest of the plan is the template's. seen, when set, records
// which slots the plan reached.
func (t *template) bind(src string, lits []literal, cat Catalog, seen []bool) *View {
	if len(lits) != len(t.slots) {
		return nil
	}
	for i, name := range t.tables {
		if h, err := cat.Table(name); err != nil || !h.SameTable(t.handles[i]) {
			return nil
		}
	}
	var valBuf [8]rel.Value
	vals := valBuf[:0]
	for i, s := range t.slots {
		v, ok := literalValue(s.kind, lits[i].text(src), s.neg)
		if !ok {
			return nil
		}
		vals = append(vals, v)
	}
	b := binder{vals: vals, seen: seen}
	plan, _ := b.node(t.plan)
	if b.bad {
		return nil
	}
	return &View{Name: t.name, Plan: plan}
}

// binder rebuilds a template plan with a statement's literal values in its
// slots. Each method returns its input as it is when nothing under it
// changed.
type binder struct {
	vals []rel.Value // by literal index
	seen []bool
	bad  bool // the plan holds a node or expression bind cannot rebuild
}

func (b *binder) node(n algebra.Node) (algebra.Node, bool) {
	switch x := n.(type) {
	case *algebra.Scan:
		return x, false
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
	b.bad = true
	return n, false
}

func (b *binder) expr(e expr.Expr) (expr.Expr, bool) {
	switch x := e.(type) {
	case slot:
		if b.seen != nil {
			b.seen[x.i] = true
		}
		return expr.V(b.vals[x.i]), true
	case expr.Col, expr.Lit:
		return e, false
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
		return e, false
	case expr.IsNullExpr:
		if in, c := b.expr(x.E); c {
			return expr.IsNullExpr{E: in}, true
		}
		return e, false
	case expr.AndExpr:
		if ts, c := b.exprs(x.Terms); c {
			return expr.AndExpr{Terms: ts}, true
		}
		return e, false
	case expr.OrExpr:
		if ts, c := b.exprs(x.Terms); c {
			return expr.OrExpr{Terms: ts}, true
		}
		return e, false
	case expr.Func:
		if as, c := b.exprs(x.Args); c {
			return expr.Func{Name: x.Name, Args: as}, true
		}
		return e, false
	}
	b.bad = true
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
