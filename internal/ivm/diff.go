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
		eqStrs(d.IDs, o.IDs) && eqStrs(d.Pre, o.Pre) && eqStrs(d.Post, o.Post)
}

func eqStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Instance couples a diff schema with a relation of diff tuples.
type Instance struct {
	Schema DiffSchema
	Rows   *rel.Relation
}

// NewInstance returns an empty instance of the schema.
func NewInstance(s DiffSchema) *Instance {
	return &Instance{Schema: s, Rows: rel.NewRelation(s.RelSchema())}
}

// Len returns the number of diff tuples.
func (i *Instance) Len() int { return i.Rows.Len() }

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
func (i *Instance) Apply(t *storage.Handle) (int, error) {
	return i.ApplyLogged(t, nil)
}

// ApplyLogged is Apply that additionally records every row the APPLY
// touches as a full-image db.Modification through rec (when non-nil) — a
// derived modification log that a cascaded (view-over-view) consumer
// compacts exactly like a trigger log on a base table. Charges are
// identical to Apply's: the images are captured inside the storage
// critical sections where they are already in hand (DeleteWhere /
// UpdateWhere's fn), never through extra probes, so the paper's Section 6
// access counts cannot tell the two entry points apart. The recorded
// tuples alias stored rows, which are immutable once stored.
func (i *Instance) ApplyLogged(t *storage.Handle, rec func(db.Modification)) (int, error) {
	switch i.Schema.Type {
	case DiffUpdate:
		return i.applyUpdate(t, rec)
	case DiffInsert:
		return i.applyInsert(t, rec)
	case DiffDelete:
		return i.applyDelete(t, rec)
	}
	return 0, fmt.Errorf("ivm: unknown diff type %d", i.Schema.Type)
}

// The three statements hand storage the whole instance — the diff's tuples
// and where in a tuple the ID, SET and target columns are — so an ApplyStep is
// one storage call, not one per diff tuple.

func (i *Instance) applyUpdate(t *storage.Handle, rec func(db.Modification)) (int, error) {
	sch := i.Rows.Schema
	idIdx, err := sch.Indices(i.Schema.IDs)
	if err != nil {
		return 0, err
	}
	postCols := make([]string, len(i.Schema.Post))
	for k, a := range i.Schema.Post {
		postCols[k] = PostName(a)
	}
	postIdx, err := sch.Indices(postCols)
	if err != nil {
		return 0, err
	}
	var record func(pre, post rel.Tuple)
	if rec != nil {
		record = func(pre, post rel.Tuple) {
			rec(db.Modification{Kind: db.ModUpdate, Table: t.Name(), Pre: pre, Post: post})
		}
	}
	_, touched, err := t.UpdateWhere(i.Schema.IDs, i.Rows.Tuples, idIdx, i.Schema.Post, postIdx, record)
	return touched, err
}

func (i *Instance) applyInsert(t *storage.Handle, rec func(db.Modification)) (int, error) {
	tSchema := t.Schema()
	if !eqStrs(i.Schema.IDs, tSchema.Key) {
		return 0, fmt.Errorf("ivm: insert diff IDs %v must equal the full key %v of %s",
			i.Schema.IDs, tSchema.Key, t.Name())
	}
	// Storage builds each target row in the table's attribute order.
	srcIdx := make([]int, len(tSchema.Attrs))
	diffSch := i.Rows.Schema
	for k, a := range tSchema.Attrs {
		j := diffSch.Index(a)
		if j < 0 {
			j = diffSch.Index(PostName(a))
		}
		if j < 0 {
			return 0, fmt.Errorf("ivm: insert diff lacks attribute %q of %s", a, t.Name())
		}
		srcIdx[k] = j
	}
	var record func(post rel.Tuple)
	if rec != nil {
		record = func(post rel.Tuple) {
			rec(db.Modification{Kind: db.ModInsert, Table: t.Name(), Post: post})
		}
	}
	_, inserted, err := t.InsertIfAbsent(i.Rows.Tuples, srcIdx, record)
	return inserted, err
}

func (i *Instance) applyDelete(t *storage.Handle, rec func(db.Modification)) (int, error) {
	idIdx, err := i.Rows.Schema.Indices(i.Schema.IDs)
	if err != nil {
		return 0, err
	}
	var record func(pre rel.Tuple)
	if rec != nil {
		record = func(pre rel.Tuple) {
			rec(db.Modification{Kind: db.ModDelete, Table: t.Name(), Pre: pre})
		}
	}
	_, deleted, err := t.DeleteWhere(i.Schema.IDs, i.Rows.Tuples, idIdx, record)
	return deleted, err
}

// IsEffective checks the effectiveness conditions of Section 2 against the
// post-state of the target table:
//
//	∆+: every inserted tuple exists in the post-state;
//	∆-: no post-state tuple matches a deleted Ī′ pattern;
//	∆u: every post-state tuple matching Ī′ has its Ā″ attributes equal to
//	    the diff's post values.
//
// It is used by tests and by the optional self-check mode of the executor.
// Lookups performed here go through the Handle and are charged to its
// counter like any other access, so production paths should only enable
// self-checking when measuring correctness, not cost.
func (i *Instance) IsEffective(t *storage.Handle) (bool, error) {
	sch := i.Rows.Schema
	idIdx, err := sch.Indices(i.Schema.IDs)
	if err != nil {
		return false, err
	}
	tSchema := t.Schema()
	for _, row := range i.Rows.Tuples {
		idVals := make([]rel.Value, len(idIdx))
		for k, j := range idIdx {
			idVals[k] = row[j]
		}
		matches, err := t.Lookup(rel.StatePost, i.Schema.IDs, idVals)
		if err != nil {
			return false, err
		}
		switch i.Schema.Type {
		case DiffDelete:
			if len(matches) > 0 {
				return false, nil
			}
		case DiffInsert:
			found := false
			for _, m := range matches {
				same := true
				for k, a := range tSchema.Attrs {
					j := sch.Index(a)
					if j < 0 {
						j = sch.Index(PostName(a))
					}
					if j < 0 || !m[k].Same(row[j]) {
						same = false
						break
					}
				}
				if same {
					found = true
					break
				}
			}
			if !found {
				return false, nil
			}
		case DiffUpdate:
			for _, m := range matches {
				for _, a := range i.Schema.Post {
					k := tSchema.Index(a)
					j := sch.Index(PostName(a))
					if k < 0 || j < 0 {
						return false, fmt.Errorf("ivm: update diff attr %q missing", a)
					}
					if !m[k].Same(row[j]) {
						return false, nil
					}
				}
			}
		}
	}
	return true, nil
}
