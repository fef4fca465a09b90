package ivm

import (
	"strings"
	"testing"

	"idivm/internal/db"
	"idivm/internal/rel"
)

var partsSchema = rel.NewSchema([]string{"pid", "price"}, []string{"pid"})

func schemaOf(string) (rel.Schema, error) { return partsSchema, nil }

func mod(kind db.ModKind, pre, post rel.Tuple) db.Modification {
	return db.Modification{Kind: kind, Table: "parts", Pre: pre, Post: post}
}

func tup(pid string, price int64) rel.Tuple {
	return rel.Tuple{rel.String(pid), rel.Int(price)}
}

func compact(t *testing.T, log []db.Modification) *NetChange {
	t.Helper()
	out, err := CompactLog(log, schemaOf)
	if err != nil {
		t.Fatal(err)
	}
	nc, ok := out["parts"]
	if !ok {
		return &NetChange{Table: "parts", Schema: partsSchema}
	}
	return nc
}

func TestCompactInsertThenUpdate(t *testing.T) {
	nc := compact(t, []db.Modification{
		mod(db.ModInsert, nil, tup("P1", 10)),
		mod(db.ModUpdate, tup("P1", 10), tup("P1", 15)),
	})
	if len(nc.Inserts) != 1 || !nc.Inserts[0][1].Equal(rel.Int(15)) {
		t.Fatalf("inserts = %v", nc.Inserts)
	}
	if len(nc.Updates) != 0 || len(nc.Deletes) != 0 {
		t.Fatal("only a net insert expected")
	}
}

func TestCompactInsertThenDelete(t *testing.T) {
	nc := compact(t, []db.Modification{
		mod(db.ModInsert, nil, tup("P1", 10)),
		mod(db.ModDelete, tup("P1", 10), nil),
	})
	if !nc.Empty() {
		t.Fatalf("insert∘delete must cancel: %+v", nc)
	}
}

func TestCompactUpdateChain(t *testing.T) {
	nc := compact(t, []db.Modification{
		mod(db.ModUpdate, tup("P1", 10), tup("P1", 11)),
		mod(db.ModUpdate, tup("P1", 11), tup("P1", 12)),
	})
	if len(nc.Updates) != 1 {
		t.Fatalf("updates = %v", nc.Updates)
	}
	u := nc.Updates[0]
	if !u.Pre[1].Equal(rel.Int(10)) || !u.Post[1].Equal(rel.Int(12)) {
		t.Fatalf("merged update = %v → %v", u.Pre, u.Post)
	}
}

func TestCompactUpdateThenDelete(t *testing.T) {
	nc := compact(t, []db.Modification{
		mod(db.ModUpdate, tup("P1", 10), tup("P1", 11)),
		mod(db.ModDelete, tup("P1", 11), nil),
	})
	if len(nc.Deletes) != 1 || !nc.Deletes[0][1].Equal(rel.Int(10)) {
		t.Fatalf("delete must carry the original pre image: %v", nc.Deletes)
	}
}

func TestCompactDeleteThenInsert(t *testing.T) {
	nc := compact(t, []db.Modification{
		mod(db.ModDelete, tup("P1", 10), nil),
		mod(db.ModInsert, nil, tup("P1", 30)),
	})
	if len(nc.Updates) != 1 {
		t.Fatalf("delete∘insert must net to an update: %+v", nc)
	}
	u := nc.Updates[0]
	if !u.Pre[1].Equal(rel.Int(10)) || !u.Post[1].Equal(rel.Int(30)) {
		t.Fatalf("update = %v → %v", u.Pre, u.Post)
	}
	// Re-inserting the identical tuple cancels entirely.
	nc2 := compact(t, []db.Modification{
		mod(db.ModDelete, tup("P1", 10), nil),
		mod(db.ModInsert, nil, tup("P1", 10)),
	})
	if !nc2.Empty() {
		t.Fatalf("identity delete∘insert must cancel: %+v", nc2)
	}
}

func TestCompactNoOpUpdateDropped(t *testing.T) {
	nc := compact(t, []db.Modification{
		mod(db.ModUpdate, tup("P1", 10), tup("P1", 11)),
		mod(db.ModUpdate, tup("P1", 11), tup("P1", 10)),
	})
	if !nc.Empty() {
		t.Fatalf("round-trip update must cancel: %+v", nc)
	}
}

func TestCompactInvalidSequences(t *testing.T) {
	if _, err := CompactLog([]db.Modification{
		mod(db.ModInsert, nil, tup("P1", 10)),
		mod(db.ModInsert, nil, tup("P1", 11)),
	}, schemaOf); err == nil {
		t.Fatal("double insert must error")
	}
	if _, err := CompactLog([]db.Modification{
		mod(db.ModDelete, tup("P1", 10), nil),
		mod(db.ModUpdate, tup("P1", 10), tup("P1", 11)),
	}, schemaOf); err == nil {
		t.Fatal("update after delete must error")
	}
	if _, err := CompactLog([]db.Modification{
		mod(db.ModDelete, tup("P1", 10), nil),
		mod(db.ModDelete, tup("P1", 10), nil),
	}, schemaOf); err == nil {
		t.Fatal("double delete must error")
	}
}

func TestPopulateInstancesRouting(t *testing.T) {
	// Two update schemas: conditional on category-like attr "price" vs NC.
	wide := rel.NewSchema([]string{"pid", "price", "note"}, []string{"pid"})
	schemas := []DiffSchema{
		{Type: DiffInsert, Rel: "parts", IDs: []string{"pid"}, Post: []string{"price", "note"}},
		{Type: DiffDelete, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price", "note"}},
		{Type: DiffUpdate, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price", "note"}, Post: []string{"price"}},
		{Type: DiffUpdate, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price", "note"}, Post: []string{"note"}},
	}
	nc := &NetChange{
		Table:  "parts",
		Schema: wide,
		Updates: []UpdatePair{
			{Pre: rel.Tuple{rel.String("P1"), rel.Int(10), rel.String("a")},
				Post: rel.Tuple{rel.String("P1"), rel.Int(11), rel.String("a")}}, // price only
			{Pre: rel.Tuple{rel.String("P2"), rel.Int(20), rel.String("b")},
				Post: rel.Tuple{rel.String("P2"), rel.Int(21), rel.String("c")}}, // both
		},
		Inserts: []rel.Tuple{{rel.String("P3"), rel.Int(30), rel.String("z")}},
		Deletes: []rel.Tuple{{rel.String("P0"), rel.Int(5), rel.String("y")}},
	}
	insts, err := PopulateInstances(nc, schemas)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, inst := range insts {
		counts[inst.Schema.String()] = inst.Len()
	}
	if got := counts[schemas[0].String()]; got != 1 {
		t.Errorf("insert instance rows = %d", got)
	}
	if got := counts[schemas[1].String()]; got != 1 {
		t.Errorf("delete instance rows = %d", got)
	}
	// The price schema receives both updates; the note schema only P2's.
	if got := counts[schemas[2].String()]; got != 2 {
		t.Errorf("price update instance rows = %d, want 2", got)
	}
	if got := counts[schemas[3].String()]; got != 1 {
		t.Errorf("note update instance rows = %d, want 1", got)
	}
}

// TestPopulateInstancesRejectsUnresolvableColumns: populate resolves each
// schema's columns against the base table once, and a column that does not
// resolve — an attribute the table lacks, a pre attribute of an insert, a
// post attribute of a delete — fails the call, rows or not.
func TestPopulateInstancesRejectsUnresolvableColumns(t *testing.T) {
	row := tup("P1", 10)
	for _, c := range []struct {
		ds   DiffSchema
		want string
	}{
		{DiffSchema{Type: DiffInsert, Rel: "parts", IDs: []string{"nope"}, Post: []string{"price"}}, `diff ID attr "nope" not in parts`},
		{DiffSchema{Type: DiffInsert, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price"}}, `diff pre attr "price" unavailable for parts`},
		{DiffSchema{Type: DiffDelete, Rel: "parts", IDs: []string{"pid"}, Post: []string{"price"}}, `diff post attr "price" unavailable for parts`},
		{DiffSchema{Type: DiffUpdate, Rel: "parts", IDs: []string{"pid"}, Pre: []string{"price"}, Post: []string{"nope"}}, `diff post attr "nope" unavailable for parts`},
	} {
		for _, nc := range []*NetChange{
			{Table: "parts", Schema: partsSchema},
			{Table: "parts", Schema: partsSchema, Inserts: []rel.Tuple{row}, Deletes: []rel.Tuple{row},
				Updates: []UpdatePair{{Pre: row, Post: tup("P1", 11)}}},
		} {
			_, err := PopulateInstances(nc, []DiffSchema{c.ds})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s with %d rows: error %v, want %q", c.ds, len(nc.Inserts), err, c.want)
			}
		}
	}
}
