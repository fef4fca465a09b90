package idivm_test

import (
	"reflect"
	"testing"

	"idivm"
)

// openEngineExample is openRunningExample on an explicit storage engine.
func openEngineExample(t testing.TB, e idivm.Engine) *idivm.DB {
	t.Helper()
	d := idivm.Open(idivm.WithEngine(e))
	d.MustCreateTable("parts", idivm.Columns("pid", "price"), "pid")
	d.MustCreateTable("devices", idivm.Columns("did", "category"), "did")
	d.MustCreateTable("devices_parts", idivm.Columns("did", "pid"), "did", "pid")

	d.MustInsert("parts", "P1", 10)
	d.MustInsert("parts", "P2", 20)
	d.MustInsert("devices", "D1", "phone")
	d.MustInsert("devices", "D2", "phone")
	d.MustInsert("devices", "D3", "tablet")
	d.MustInsert("devices_parts", "D1", "P1")
	d.MustInsert("devices_parts", "D2", "P1")
	d.MustInsert("devices_parts", "D1", "P2")
	return d
}

// TestFacadeEngineOption drives the running example identically on the
// default and sharded engines: maintained view contents (View sorts
// deterministically), consistency and access counts must all agree.
func TestFacadeEngineOption(t *testing.T) {
	const view = `
		CREATE VIEW v AS
		SELECT did, pid, price
		FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
		WHERE category = 'phone'`

	run := func(e idivm.Engine) (*idivm.Rows, [3]int64, error) {
		d := openEngineExample(t, e)
		d.MustCreateView(view)
		if ok, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 11}); err != nil || !ok {
			t.Fatalf("update: ok=%v err=%v", ok, err)
		}
		d.MustInsert("devices_parts", "D2", "P2")
		if ok, err := d.Delete("devices_parts", "D1", "P2"); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
		if _, err := d.Maintain(); err != nil {
			return nil, [3]int64{}, err
		}
		if err := d.CheckConsistent("v"); err != nil {
			return nil, [3]int64{}, err
		}
		d.ResetAccessCounter()
		rows, err := d.View("v")
		if err != nil {
			return nil, [3]int64{}, err
		}
		// A second maintenance round measures steady-state access counts.
		if ok, err := d.Update("parts", []any{"P2"}, map[string]any{"price": 21}); err != nil || !ok {
			t.Fatalf("update 2: ok=%v err=%v", ok, err)
		}
		var counts [3]int64
		if _, err := d.Maintain(); err != nil {
			return nil, counts, err
		}
		counts[0], counts[1], counts[2] = d.AccessCounter()
		return rows, counts, nil
	}

	memRows, memCounts, err := run(idivm.MemEngine())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 7} {
		shardRows, shardCounts, err := run(idivm.ShardedEngine(n))
		if err != nil {
			t.Fatalf("sharded(%d): %v", n, err)
		}
		if !reflect.DeepEqual(shardRows, memRows) {
			t.Fatalf("sharded(%d) view = %v, mem view = %v", n, shardRows.Data, memRows.Data)
		}
		if shardCounts != memCounts {
			t.Fatalf("sharded(%d) accesses %v != mem %v", n, shardCounts, memCounts)
		}
	}
}
