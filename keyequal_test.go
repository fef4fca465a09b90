package idivm_test

import (
	"fmt"
	"math"
	"testing"

	"idivm"
)

// TestUpdatesAcrossKeyEqualEdges updates one row's v through every ordered
// pair of values that SQL = and KeyEqual judge differently — 2^53 and
// 2^53+1 (equal through float64), Float(2^53), NaN (equal to nothing under
// =), both zeros and NULL — under a plain projection and a selection on
// the key, in both modes, and requires every view to equal its recompute.
// A change guard testing post = pre drops the update to 2^53+1 and the one
// to NaN as no-ops.
func TestUpdatesAcrossKeyEqualEdges(t *testing.T) {
	const p53 = int64(1) << 53
	values := []any{p53, p53 + 1, float64(p53), math.NaN(), math.Copysign(0, -1), int64(0), nil, int64(1)}
	views := []string{"SELECT k, v FROM t", "SELECT k, v FROM t WHERE k = 1"}
	for _, mode := range []idivm.Mode{idivm.ModeID, idivm.ModeTuple} {
		for vi, sql := range views {
			for _, from := range values {
				for _, to := range values {
					name := fmt.Sprintf("%v/view%d/%v→%v", mode, vi, from, to)
					d := idivm.Open()
					d.MustCreateTable("t", []string{"k", "v"}, "k")
					if err := d.Insert("t", 1, from); err != nil {
						t.Fatal(err)
					}
					d.MustCreateView("CREATE VIEW w AS "+sql, idivm.WithMode(mode))
					if _, err := d.Update("t", []any{1}, map[string]any{"v": to}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := d.Maintain(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := d.CheckConsistent("w"); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}
