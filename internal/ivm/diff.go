// Package ivm implements idIVM, the ID-based incremental view maintenance
// system of "Utilizing IDs to Accelerate Incremental View Maintenance"
// (SIGMOD 2015): ID-based diffs (i-diffs), the base-table i-diff schema
// generator, the 4-pass Δ-script generation algorithm with per-operator
// i-diff propagation rules, semantic minimization, intermediate caches for
// aggregates, and the Δ-script executor.
//
// The same rule engine, run in tuple mode, produces the tuple-based
// D-scripts of prior IVM approaches that the paper compares against
// (Section 7: "the D-script was produced using our implementation of idIVM
// with tuple-based diff propagation rules").
package ivm

import (
	"fmt"
	"slices"
	"strings"

	"idivm/internal/db"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// DiffType classifies an i-diff: insert, delete or update (Section 2).
type DiffType uint8

// The three i-diff types.
const (
	DiffInsert DiffType = iota
	DiffDelete
	DiffUpdate
)

// String returns "+", "-" or "u".
func (t DiffType) String() string {
	switch t {
	case DiffInsert:
		return "+"
	case DiffDelete:
		return "-"
	default:
		return "u"
	}
}

// Pre/post attribute naming convention inside diff relations: the ID
// attributes keep their plain names; non-ID attribute a appears as a#pre
// and/or a#post.
const (
	preSuffix  = "#pre"
	postSuffix = "#post"
)

// PreName returns the diff-relation column holding attribute a's pre-state.
func PreName(a string) string { return a + preSuffix }

// PostName returns the diff-relation column holding attribute a's
// post-state.
func PostName(a string) string { return a + postSuffix }

// DiffSchema describes an i-diff ∆ᵗ_Rel(Ī′, Ā′pre, Ā″post) per Section 2:
//   - IDs is the subset Ī′ of the target relation's ID attributes used to
//     identify the tuples to modify;
//   - Pre lists the attributes whose pre-state values the diff carries;
//   - Post lists the attributes whose post-state values it carries.
//
// Insert diffs have no Pre set and carry post-state values for every
// non-ID attribute; delete diffs have no Post set.
type DiffSchema struct {
	Type DiffType
	Rel  string // name of the relation the diff is over
	IDs  []string
	Pre  []string
	Post []string
}

// RelSchema returns the schema of the relation that holds instances of
// this diff: IDs (plain, forming the key) followed by pre columns then
// post columns.
func (d DiffSchema) RelSchema() rel.Schema {
	attrs := append([]string(nil), d.IDs...)
	for _, a := range d.Pre {
		attrs = append(attrs, PreName(a))
	}
	for _, a := range d.Post {
		attrs = append(attrs, PostName(a))
	}
	return rel.NewSchema(attrs, d.IDs)
}

// String renders the diff schema compactly, e.g. ∆u_parts(pid; price).
func (d DiffSchema) String() string {
	return fmt.Sprintf("∆%s_%s(%s; pre:%s; post:%s)", d.Type, d.Rel,
		strings.Join(d.IDs, ","), strings.Join(d.Pre, ","), strings.Join(d.Post, ","))
}

// Equal reports whether two diff schemas are identical.
func (d DiffSchema) Equal(o DiffSchema) bool {
	return d.Type == o.Type && d.Rel == o.Rel &&
		slices.Equal(d.IDs, o.IDs) && slices.Equal(d.Pre, o.Pre) && slices.Equal(d.Post, o.Post)
}

// Instance couples a diff schema with its diff rows. One NewInstance built
// holds them as tuples in Rows. One PopulateInstances built holds them as the
// columns a round binds and as tuples in Rows, built from those columns. An
// instance a Δ-script applied to its view (PhaseCosts.Applied) holds the
// binding its APPLY read, the compute step's columns, and Rows is nil: read
// its rows through Tuples, which builds them on first use.
type Instance struct {
	Schema DiffSchema
	Rows   *rel.Relation
	bound  *rel.Binding
}

// NewInstance returns an empty instance of the schema.
func NewInstance(s DiffSchema) *Instance {
	return &Instance{Schema: s, Rows: rel.NewRelation(s.RelSchema())}
}

// Len returns the number of diff rows; it converts nothing.
func (i *Instance) Len() int {
	if i.bound != nil {
		return i.bound.Len()
	}
	return i.Rows.Len()
}

// Tuples returns the diff rows as tuples. An applied instance builds them the
// first time anyone asks — once, however many goroutines ask (the binding's
// conversion is once-guarded) — so a consumer that wants tuples pays for them
// on its own goroutine, and the maintenance round that produced the instance
// never does. Callers must not mutate the tuples.
func (i *Instance) Tuples() []rel.Tuple {
	if i.bound != nil {
		return i.bound.Relation().Tuples
	}
	return i.Rows.Tuples
}

// RowSchema is the schema of the rows Tuples returns: an applied instance's
// is its compute step's, which may order or name its columns unlike
// Schema.RelSchema(). It converts nothing.
func (i *Instance) RowSchema() rel.Schema {
	if i.bound != nil {
		return i.bound.Schema()
	}
	return i.Rows.Schema
}

// binding is the instance's rows as a binding: the applied step's, or a new
// one over Rows.
func (i *Instance) binding() *rel.Binding {
	if i.bound != nil {
		return i.bound
	}
	return rel.BindRelation(i.Rows)
}

// Apply applies the diff instance to a stored table (a materialized view,
// cache, or — in tests — any keyed relation), implementing the APPLY
// semantics of Section 2:
//
//	∆u: UPDATE V SET Ā″ = Ā″post WHERE V.Ī′ = ∆.Ī′
//	∆+: INSERT unless the identical tuple already exists
//	∆-: DELETE FROM V WHERE ROW(Ī′) IN (SELECT Ī′ FROM ∆)
//
// It returns the number of view tuples touched. Dummy diff tuples
// (overestimation) match nothing and are charged only their index lookup,
// exactly the overestimation cost the paper analyzes.
//
// The target is a *storage.Handle, not the raw storage.Table interface:
// every APPLY write is a charged access of the paper's cost model, and the
// Handle is the sole charge point (the chargepath analyzer pins this).
// Apply resolves the diff's columns on every call; a Δ-script's APPLY steps
// resolved theirs at CompileScript. Like theirs, it reads the rows as columns:
// an applied instance replays without ever becoming tuples.
func (i *Instance) Apply(t *storage.Handle) (int, error) {
	c, err := resolveApply(i.Schema, i.RowSchema(), t.Schema())
	if err != nil {
		return 0, err
	}
	return applyRows(t, &i.Schema, i.binding().Batch(), &c, nil)
}

// applyCols are an APPLY's column positions in its diff rows: id the diff's
// ID columns, set an update's post columns, and src, for an insert, the
// diff column of every target attribute in the target's attribute order.
type applyCols struct{ id, set, src []int }

// resolveApply resolves the columns of diff ds, whose rows have schema src,
// for an APPLY to a table of schema target.
func resolveApply(ds DiffSchema, src, target rel.Schema) (applyCols, error) {
	var c applyCols
	var err error
	if c.id, err = src.Indices(ds.IDs); err != nil {
		return c, err
	}
	switch ds.Type {
	case DiffUpdate:
		c.set = make([]int, len(ds.Post))
		for k, a := range ds.Post {
			if c.set[k] = src.Index(PostName(a)); c.set[k] < 0 {
				return c, fmt.Errorf("ivm: update diff lacks %q", PostName(a))
			}
		}
	case DiffInsert:
		if !slices.Equal(ds.IDs, target.Key) {
			return c, fmt.Errorf("ivm: insert diff IDs %v must equal the full key %v", ds.IDs, target.Key)
		}
		c.src = make([]int, len(target.Attrs))
		for k, a := range target.Attrs {
			if c.src[k] = src.Index(a); c.src[k] < 0 {
				c.src[k] = src.Index(PostName(a))
			}
			if c.src[k] < 0 {
				return c, fmt.Errorf("ivm: insert diff lacks attribute %q", a)
			}
		}
	case DiffDelete:
	default:
		return c, fmt.Errorf("ivm: unknown diff type %d", ds.Type)
	}
	return c, nil
}

// applyRows applies b, diff rows of ds with columns c, to t, recording every
// row it touches as a full-image db.Modification through rec when rec is
// non-nil — the derived modification log a cascaded (view-over-view)
// consumer compacts exactly like a trigger log on a base table. Each
// statement hands storage the whole instance, as the columns its compute
// step produced, and which of them hold its ID, SET and target values, so an
// APPLY is one storage call, not one per diff row, and reads only the
// columns it needs. Recording charges nothing: the images are captured
// inside the storage critical sections where they are already in hand, never
// through extra probes, and the recorded tuples alias stored rows, which are
// immutable once stored.
func applyRows(t *storage.Handle, ds *DiffSchema, b *rel.Batch, c *applyCols, rec func(db.Modification)) (int, error) {
	var n int
	var err error
	switch ds.Type {
	case DiffUpdate:
		var record func(pre, post rel.Tuple)
		if rec != nil {
			record = func(pre, post rel.Tuple) {
				rec(db.Modification{Kind: db.ModUpdate, Table: t.Name(), Pre: pre, Post: post})
			}
		}
		_, n, err = t.UpdateWhere(ds.IDs, b, c.id, ds.Post, c.set, record)
	case DiffInsert:
		var record func(post rel.Tuple)
		if rec != nil {
			record = func(post rel.Tuple) { rec(db.Modification{Kind: db.ModInsert, Table: t.Name(), Post: post}) }
		}
		_, n, err = t.InsertIfAbsent(b, c.src, record)
	default:
		var record func(pre rel.Tuple)
		if rec != nil {
			record = func(pre rel.Tuple) { rec(db.Modification{Kind: db.ModDelete, Table: t.Name(), Pre: pre}) }
		}
		_, n, err = t.DeleteWhere(ds.IDs, b, c.id, record)
	}
	return n, err
}

// IsEffective checks the effectiveness conditions of Section 2 against the
// post-state of the target table:
//
//	∆+: every inserted tuple exists in the post-state;
//	∆-: no post-state tuple matches a deleted Ī′ pattern;
//	∆u: every post-state tuple matching Ī′ has its Ā″ attributes equal to
//	    the diff's post values.
//
// Values are equal when they are KeyEqual — the equality stored tables
// index under, so an update to 2^53+1 over a stored 2^53, or to NaN over 1,
// is not effective. It is used by tests and by the optional self-check mode
// of the executor. Lookups performed here go through the Handle and are
// charged to its counter like any other access, so production paths should
// only enable self-checking when measuring correctness, not cost.
func (i *Instance) IsEffective(t *storage.Handle) (bool, error) {
	c, err := resolveApply(i.Schema, i.RowSchema(), t.Schema())
	if err != nil {
		return false, err
	}
	return isEffective(t, &i.Schema, i.Tuples(), &c)
}

// isEffective is IsEffective over rows, diff tuples of ds with columns c.
// An insert's full-key lookup finds at most one row, which must hold every
// value; an update's matches must hold its SET values.
func isEffective(t *storage.Handle, ds *DiffSchema, rows []rel.Tuple, c *applyCols) (bool, error) {
	sch := t.Schema()
	set, from := sch.Attrs, c.src
	if ds.Type == DiffUpdate {
		set, from = ds.Post, c.set
	}
	at, err := sch.Indices(set)
	if err != nil {
		return false, err
	}
	ids := make([]rel.Value, len(c.id))
	for _, row := range rows {
		for k, j := range c.id {
			ids[k] = row[j]
		}
		matches, err := t.Lookup(rel.StatePost, ds.IDs, ids)
		if err != nil {
			return false, err
		}
		if len(matches) > 0 && ds.Type == DiffDelete || len(matches) == 0 && ds.Type == DiffInsert {
			return false, nil
		}
		for _, m := range matches {
			for k, j := range from {
				if !m[at[k]].KeyEqual(row[j]) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
