package sqlview

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"idivm/internal/algebra"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// Catalog resolves base table schemas; db.Database satisfies it.
type Catalog interface {
	Table(name string) (*storage.Handle, error)
}

// View is a parsed view definition.
type View struct {
	Name string // empty unless CREATE VIEW name AS was used
	Plan algebra.Node
}

// Parse compiles a SQL view definition against a catalog: src's template,
// bound to its literals. A catalog that owns a db.Memo (a *db.Database does)
// keeps the statement's shape there, so a later statement of the same shape
// is bound, not parsed (shape.go).
func Parse(src string, cat Catalog) (*View, error) {
	var valBuf [8]rel.Value
	t, vals, err := find(src, cat, valBuf[:0])
	if err != nil {
		return nil, err
	}
	return t.bind(vals, nil), nil
}

// parse parses the whole statement.
func (p *parser) parse() (*View, error) {
	v, err := p.view()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return v, nil
}

type parser struct {
	toks []token
	pos  int
	cat  Catalog

	// The statement's i-th literal becomes parameter i (expr.Param) of the
	// plan, a template (shape.go): slots[i] records its kind and sign,
	// vals[i] its value.
	slots []slot
	vals  []rel.Value

	// FROM-clause sources, in order.
	sources []source
}

type source struct {
	table  string
	alias  string
	scan   *algebra.Scan
	schema rel.Schema
	handle *storage.Handle // what the catalog resolved table to
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlview: %s (near position %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", p.errf("expected identifier, got %q", p.peek().text)
}

// view := [CREATE VIEW name AS] select [;]
func (p *parser) view() (*View, error) {
	name := ""
	if p.acceptKeyword("CREATE") {
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		name = n
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
	}
	plan, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	return &View{Name: name, Plan: plan}, nil
}

// selectItem is a parsed (unresolved) select-list entry.
type selectItem struct {
	e     expr.Expr
	aggFn algebra.AggFn // non-empty for aggregates
	star  bool          // COUNT(*)
	as    string
}

func (p *parser) selectStmt() (algebra.Node, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	p.acceptKeyword("DISTINCT") // accepted and handled via implicit grouping
	distinctAt := p.toks[p.pos-1].kind == tokKeyword && p.toks[p.pos-1].text == "DISTINCT"

	var items []selectItem
	for {
		it, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	joined, pendingOn, err := p.fromClause()
	if err != nil {
		return nil, err
	}
	var where expr.Expr = expr.True()
	if p.acceptKeyword("WHERE") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		where = w
	}
	var groupBy []string
	hasGroup := false
	if p.acceptKeyword("GROUP") {
		hasGroup = true
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q, err := p.resolveCol(col)
			if err != nil {
				return nil, err
			}
			groupBy = append(groupBy, q)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	var having expr.Expr
	if p.acceptKeyword("HAVING") {
		if !hasGroup {
			return nil, p.errf("HAVING requires GROUP BY")
		}
		h, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		having = h
	}

	rwhere, err := p.resolve(where)
	if err != nil {
		return nil, err
	}
	plan, err := p.buildJoinTree(joined, expr.And(pendingOn, rwhere))
	if err != nil {
		return nil, err
	}
	out, err := p.buildSelectList(plan, items, groupBy, hasGroup, distinctAt)
	if err != nil {
		return nil, err
	}
	if having != nil {
		// HAVING is a selection above the aggregation; its columns are the
		// SELECT list's output names (aggregate aliases) or group columns.
		resolved, err := p.resolveHaving(having, out.Schema())
		if err != nil {
			return nil, err
		}
		out = algebra.NewSelect(out, resolved)
	}
	return out, nil
}

// resolveHaving maps HAVING's column references onto the aggregation's
// output schema: exact output names win, then qualified group columns.
func (p *parser) resolveHaving(e expr.Expr, sch rel.Schema) (expr.Expr, error) {
	m := map[string]string{}
	for _, c := range e.Cols() {
		if sch.Has(c) {
			continue
		}
		q, err := p.resolveCol(c)
		if err != nil || !sch.Has(q) {
			return nil, p.errf("HAVING column %q is neither a select-list output nor a group column", c)
		}
		m[c] = q
	}
	return expr.Rename(e, m), nil
}

// selectItem := agg | expr [AS ident]
func (p *parser) selectItem() (selectItem, error) {
	t := p.peek()
	if t.kind == tokKeyword {
		switch t.text {
		case "SUM", "COUNT", "AVG", "MIN", "MAX":
			p.pos++
			it := selectItem{aggFn: algebra.AggFn(strings.ToLower(t.text))}
			if err := p.expectSymbol("("); err != nil {
				return it, err
			}
			if p.acceptSymbol("*") {
				it.star = true
			} else {
				e, err := p.addExpr()
				if err != nil {
					return it, err
				}
				it.e = e
			}
			if err := p.expectSymbol(")"); err != nil {
				return it, err
			}
			if it.star && it.aggFn != algebra.AggCount {
				return it, p.errf("%s(*) is not supported", t.text)
			}
			it.as = p.optionalAlias()
			return it, nil
		}
	}
	e, err := p.addExpr()
	if err != nil {
		return selectItem{}, err
	}
	return selectItem{e: e, as: p.optionalAlias()}, nil
}

func (p *parser) optionalAlias() string {
	if p.acceptKeyword("AS") {
		if t := p.peek(); t.kind == tokIdent {
			p.pos++
			return t.text
		}
	}
	return ""
}

// fromClause parses the sources, applying NATURAL JOIN / JOIN … ON
// eagerly. It returns the list of still-unjoined groups plus the
// accumulated ON conditions (resolved).
func (p *parser) fromClause() ([]algebra.Node, expr.Expr, error) {
	var groups []algebra.Node
	on := expr.True()

	first, err := p.fromItem()
	if err != nil {
		return nil, nil, err
	}
	current := algebra.Node(first)
	for {
		switch {
		case p.acceptKeyword("NATURAL"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, nil, err
			}
			s, err := p.fromItem()
			if err != nil {
				return nil, nil, err
			}
			if current, err = algebra.NaturalJoin(current, s); err != nil {
				return nil, nil, p.errf("NATURAL JOIN %s shares no column name with the sources before it", s.Table)
			}
		case p.peekJoin():
			p.acceptKeyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, nil, err
			}
			s, err := p.fromItem()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, nil, err
			}
			cond, err := p.orExpr()
			if err != nil {
				return nil, nil, err
			}
			rcond, err := p.resolve(cond)
			if err != nil {
				return nil, nil, err
			}
			if !rel.Subset(rcond.Cols(), rel.Union(current.Schema().Attrs, s.Schema().Attrs)) {
				return nil, nil, p.errf("ON condition of JOIN %s references a source outside the join", s.Table)
			}
			current = algebra.NewJoin(current, s, rcond)
		case p.acceptSymbol(","):
			groups = append(groups, current)
			s, err := p.fromItem()
			if err != nil {
				return nil, nil, err
			}
			current = s
		default:
			groups = append(groups, current)
			return groups, on, nil
		}
	}
}

func (p *parser) peekJoin() bool {
	t := p.peek()
	return t.kind == tokKeyword && (t.text == "JOIN" || t.text == "INNER")
}

func (p *parser) fromItem() (*algebra.Scan, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	alias := name
	if p.acceptKeyword("AS") {
		alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	} else if t := p.peek(); t.kind == tokIdent {
		alias = t.text
		p.pos++
	}
	for _, s := range p.sources {
		if s.alias == alias {
			return nil, p.errf("%q names two FROM sources; give one an alias", alias)
		}
	}
	tab, err := p.cat.Table(name)
	if err != nil {
		return nil, fmt.Errorf("sqlview: %w", err)
	}
	s := algebra.NewScan(name, alias, tab.Schema())
	p.sources = append(p.sources, source{table: name, alias: alias, scan: s, schema: s.Schema(), handle: tab})
	return s, nil
}

// buildJoinTree folds the comma-separated groups into a left-deep join
// tree, attaching each WHERE conjunct at the earliest point where its
// columns are available; single-source conjuncts become selections pushed
// onto their source.
func (p *parser) buildJoinTree(groups []algebra.Node, cond expr.Expr) (algebra.Node, error) {
	conjs := expr.Conjuncts(cond)

	// Push single-group conjuncts down.
	var joinConjs []expr.Expr
	for _, c := range conjs {
		placed := false
		for i, g := range groups {
			if rel.Subset(c.Cols(), g.Schema().Attrs) {
				groups[i] = algebra.NewSelect(g, c)
				placed = true
				break
			}
		}
		if !placed {
			joinConjs = append(joinConjs, c)
		}
	}

	acc := groups[0]
	remaining := groups[1:]
	for len(remaining) > 0 {
		// Prefer a group connected to acc by some conjunct.
		next := -1
		for i, g := range remaining {
			for _, c := range joinConjs {
				u := rel.Union(acc.Schema().Attrs, g.Schema().Attrs)
				if rel.Subset(c.Cols(), u) && len(rel.Intersect(c.Cols(), g.Schema().Attrs)) > 0 {
					next = i
					break
				}
			}
			if next >= 0 {
				break
			}
		}
		if next < 0 {
			next = 0
		}
		g := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		u := rel.Union(acc.Schema().Attrs, g.Schema().Attrs)
		var here, rest []expr.Expr
		for _, c := range joinConjs {
			if rel.Subset(c.Cols(), u) {
				here = append(here, c)
			} else {
				rest = append(rest, c)
			}
		}
		joinConjs = rest
		acc = algebra.NewJoin(acc, g, expr.And(here...))
	}
	if len(joinConjs) > 0 {
		acc = algebra.NewSelect(acc, expr.And(joinConjs...))
	}
	return acc, nil
}

// buildSelectList applies GROUP BY / DISTINCT / projection semantics.
func (p *parser) buildSelectList(plan algebra.Node, items []selectItem, groupBy []string, hasGroup, distinct bool) (algebra.Node, error) {
	aggSeq := 0
	autoName := func(it selectItem) string {
		if it.as != "" {
			return it.as
		}
		if it.aggFn != "" {
			aggSeq++
			if it.star {
				return fmt.Sprintf("count_%d", aggSeq)
			}
			cols := it.e.Cols()
			base := "expr"
			if len(cols) > 0 {
				_, base = rel.BaseAttr(cols[len(cols)-1])
			}
			return fmt.Sprintf("%s_%s", it.aggFn, base)
		}
		if c, ok := it.e.(expr.Col); ok {
			_, bare := rel.BaseAttr(c.Name)
			return bare
		}
		aggSeq++
		return fmt.Sprintf("col_%d", aggSeq)
	}

	hasAgg := false
	for _, it := range items {
		if it.aggFn != "" {
			hasAgg = true
		}
	}

	if hasGroup || hasAgg {
		if !hasGroup && hasAgg {
			return nil, p.errf("aggregates without GROUP BY are not supported (whole-table aggregation has no IDs)")
		}
		var aggs []algebra.Agg
		var postItems []algebra.ProjItem
		needProject := false
		for _, it := range items {
			name := autoName(it)
			if it.aggFn != "" {
				var arg expr.Expr
				if !it.star {
					a, err := p.resolve(it.e)
					if err != nil {
						return nil, err
					}
					arg = a
				}
				aggs = append(aggs, algebra.Agg{Fn: it.aggFn, Arg: arg, As: name})
				postItems = append(postItems, algebra.ProjItem{E: expr.C(name), As: name})
				continue
			}
			re, err := p.resolve(it.e)
			if err != nil {
				return nil, err
			}
			c, ok := re.(expr.Col)
			if !ok || !rel.Contains(groupBy, c.Name) {
				return nil, p.errf("non-aggregate select item %q must be a GROUP BY column", name)
			}
			// Group columns keep their qualified names unless explicitly
			// aliased: renaming them would wrap the aggregation in a
			// projection and demote it from the plan root, which costs the
			// maintenance scripts their direct access to the materialized
			// aggregate.
			if it.as == "" {
				name = c.Name
			}
			postItems = append(postItems, algebra.ProjItem{E: expr.C(c.Name), As: name})
			if name != c.Name {
				needProject = true
			}
		}
		names := make([]string, len(postItems))
		for i, it := range postItems {
			names[i] = it.As
		}
		if err := p.uniqueOutputs(names); err != nil {
			return nil, err
		}
		for _, a := range aggs {
			if rel.Contains(groupBy, a.As) {
				return nil, p.errf("aggregate output %q collides with a GROUP BY column", a.As)
			}
		}
		g := algebra.NewGroupBy(plan, groupBy, aggs)
		if !needProject {
			return g, nil
		}
		return algebra.NewProject(g, postItems), nil
	}

	var projItems []algebra.ProjItem
	var names []string
	for _, it := range items {
		name := autoName(it)
		re, err := p.resolve(it.e)
		if err != nil {
			return nil, err
		}
		projItems = append(projItems, algebra.ProjItem{E: re, As: name})
		names = append(names, name)
	}
	if err := p.uniqueOutputs(names); err != nil {
		return nil, err
	}
	out := algebra.Node(algebra.NewProject(plan, projItems))
	if distinct {
		// DISTINCT via grouping on all output columns (the paper's
		// δ-as-γ encoding of Section 4).
		var keys []string
		for _, it := range projItems {
			keys = append(keys, it.As)
		}
		out = algebra.NewGroupBy(out, keys, nil)
	}
	return out, nil
}

// uniqueOutputs rejects a select list that gives two output columns the
// same name — written out (a AS x, b AS x) or derived (t.a and u.a both
// come out as a; two SUM(a) as sum_a). The algebra constructors treat a
// duplicate as a caller bug and panic, so it has to stop here.
func (p *parser) uniqueOutputs(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return p.errf("duplicate output column %q in the select list (rename one with AS)", n)
		}
		seen[n] = true
	}
	return nil
}

// ---- column resolution ------------------------------------------------

// resolveCol maps a column name as written to a qualified attribute of a
// FROM source. A name that spells an attribute in full (t.a) or without
// its source (a — or "parts.cat", the stored name of a view's group key)
// is that attribute. Otherwise a bare name, or one qualified by a source's
// alias, stands for the attribute of that source whose last dotted
// component it is: v.cat and cat both reach v's column parts.cat. When a
// name matches in several sources — which is routine after a NATURAL JOIN,
// where the joined columns are equal by construction — the first source in
// FROM order wins; two matches inside one source are an error.
func (p *parser) resolveCol(name string) (string, error) {
	for _, s := range p.sources {
		if strings.HasPrefix(name, s.alias+".") && s.schema.Has(name) {
			return name, nil
		}
	}
	for _, s := range p.sources {
		if q := s.alias + "." + name; s.schema.Has(q) {
			return q, nil
		}
	}
	alias, last := rel.BaseAttr(name)
	for _, s := range p.sources {
		if alias != "" && alias != s.alias {
			continue
		}
		found := ""
		for _, a := range s.schema.Attrs {
			if _, l := rel.BaseAttr(a); l != last {
				continue
			}
			if found != "" {
				return "", fmt.Errorf("sqlview: column %q is ambiguous in %q: %q or %q", name, s.alias, found, a)
			}
			found = a
		}
		if found != "" {
			return found, nil
		}
	}
	return "", fmt.Errorf("sqlview: unknown column %q", name)
}

// resolve rewrites every column of e to its qualified form.
func (p *parser) resolve(e expr.Expr) (expr.Expr, error) {
	m := map[string]string{}
	for _, c := range e.Cols() {
		q, err := p.resolveCol(c)
		if err != nil {
			return nil, err
		}
		m[c] = q
	}
	return expr.Rename(e, m), nil
}

// ---- expression grammar -------------------------------------------------

func (p *parser) orExpr() (expr.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Or(l, r)
	}
	return l, nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.And(l, r)
	}
	return l, nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.Not(e), nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		var out expr.Expr = expr.IsNull(l)
		if negate {
			out = expr.Not(out)
		}
		return out, nil
	}
	t := p.peek()
	if t.kind == tokSymbol {
		var op expr.CmpOp
		switch t.text {
		case "=":
			op = expr.EQ
		case "<>", "!=":
			op = expr.NE
		case "<":
			op = expr.LT
		case "<=":
			op = expr.LE
		case ">":
			op = expr.GT
		case ">=":
			op = expr.GE
		default:
			return l, nil
		}
		p.pos++
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return expr.Cmp{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (expr.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.AddE(l, r)
		case p.acceptSymbol("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.SubE(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = expr.MulE(l, r)
		case p.acceptSymbol("/"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = expr.DivE(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber, tokString:
		return p.literal(false)
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.pos++
			return expr.V(rel.Bool(true)), nil
		case "FALSE":
			p.pos++
			return expr.V(rel.Bool(false)), nil
		case "NULL":
			p.pos++
			return expr.V(rel.Null()), nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.pos++
		// Function call?
		if p.acceptSymbol("(") {
			var args []expr.Expr
			if !p.acceptSymbol(")") {
				for {
					a, err := p.addExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			if !expr.HasBuiltin(t.text) {
				return nil, p.errf("unknown function %q", t.text)
			}
			return expr.Call(t.text, args...), nil
		}
		return expr.C(t.text), nil
	case tokSymbol:
		if t.text == "-" && p.toks[p.pos+1].kind == tokNumber {
			p.pos++
			return p.literal(true)
		}
		if t.text == "(" {
			p.pos++
			e, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// literal parses the number or string literal at the current token, the
// negative of a number when neg is set, into its parameter.
func (p *parser) literal(neg bool) (expr.Expr, error) {
	t := p.peek()
	p.pos++
	v, ok := literalValue(t.lit, t.text, neg)
	if !ok {
		text := t.text
		if neg {
			text = "-" + text
		}
		return nil, p.errf("bad number %q", text)
	}
	p.slots[t.n], p.vals[t.n] = slot{kind: t.lit, neg: neg}, v
	return expr.Param{I: int(t.n)}, nil
}

// literalValue is the value of a literal's text, read as its kind. It
// allocates nothing.
func literalValue(kind litKind, text string, neg bool) (rel.Value, bool) {
	switch kind {
	case litString:
		return rel.String(text), true
	case litFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return rel.Value{}, false
		}
		if neg {
			f = -f
		}
		return rel.Float(f), true
	}
	u, err := strconv.ParseUint(text, 10, 64)
	switch {
	case err != nil:
		return rel.Value{}, false
	case neg && u <= 1<<63:
		return rel.Int(-int64(u)), true
	case !neg && u <= math.MaxInt64:
		return rel.Int(int64(u)), true
	}
	return rel.Value{}, false
}
