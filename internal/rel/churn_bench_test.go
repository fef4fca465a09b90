package rel_test

import (
	"fmt"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// BenchmarkTableChurn measures the storage write path the APPLY statements
// ride on. One cycle inserts a k-row bucket, removes it with one
// DeleteWhere and updates a non-indexed column of k rows by key, on a
// 100 000-row table with three secondary indexes (g: the bucket, h: one
// row per bucket, and g+h). The table goes through a storage.Handle so the
// row carries the cost model's accesses/op — constant, 4k+1 — next to
// ns/op and allocs/op, which is what the bench gate then shows as an
// informational column.
func BenchmarkTableChurn(b *testing.B) {
	const n = 100_000
	for _, k := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var cost rel.CostCounter
			tab := storage.NewHandle(rel.MustNewTable("t", rel.NewSchema([]string{"k", "g", "h", "v"}, []string{"k"})))
			for i := int64(0); i < n; i++ {
				tab.MustInsert(rel.Int(i), rel.Int(i/100), rel.Int(i), rel.Int(0))
			}
			onG, setV := []string{"g"}, []string{"v"}
			for _, attrs := range [][]string{onG, {"h"}, {"g", "h"}} {
				if _, err := tab.Lookup(rel.StatePost, attrs, make([]rel.Value, len(attrs))); err != nil {
					b.Fatal(err)
				}
			}
			row, key, val := make(rel.Tuple, 4), make([]rel.Value, 1), make([]rel.Value, 1)
			bucket, keyCol := []rel.Tuple{key}, []int{0} // the one-tuple delete instance
			cycle := func(c int64) {
				g := rel.Int(-1 - c)
				for i := int64(0); i < int64(k); i++ {
					row[0], row[1], row[2], row[3] = rel.Int(-1-i), g, rel.Int(-1-i), rel.Int(c)
					if err := tab.Insert(row); err != nil {
						b.Fatal(err)
					}
				}
				key[0] = g
				if _, got, err := tab.DeleteWhere(onG, bucket, keyCol, nil); got != k || err != nil {
					b.Fatalf("DeleteWhere = %d, %v; want %d", got, err, k)
				}
				val[0] = rel.Int(c)
				for i := int64(0); i < int64(k); i++ {
					key[0] = rel.Int((c*int64(k) + i) * 7919 % n)
					if ok, err := tab.UpdateKey(key, setV, val); !ok || err != nil {
						b.Fatalf("UpdateKey = %v, %v", ok, err)
					}
				}
			}
			cycle(0) // sizes the scratch buffers and the free list
			tab.SetCounter(&cost)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(int64(i + 1))
			}
			b.ReportMetric(float64(cost.Total())/float64(b.N), "accesses/op")
		})
	}
}

// BenchmarkFeedApplyShape is the apply phase of a feed view's round as
// feed_serving produces it (benchmark/): a 95 000-row (fid*, twid*, uid)
// table — 500 tweets delivered to 190 followers each — with secondary
// indexes on twid and on fid, inside an epoch a serving replica keeps
// pinned. One iteration retracts 64 tweets (one DeleteWhere instance of 64
// twid keys, 190 rows each), delivers 64 new ones (one InsertIfAbsent
// instance of 12 160 rows) and advances the epoch — the two storage calls an
// ApplyStep pair makes. Every removed row leaves the primary index, the dropped twid chain and the
// middle of some follower's fid chain; every inserted row joins all three.
// accesses/op is constant; ns/op and allocs/op are what the row is for.
func BenchmarkFeedApplyShape(b *testing.B) {
	const tweets, fanout, followers, perRound = 500, 190, 2000, 64
	var cost rel.CostCounter
	tab := storage.NewHandle(rel.MustNewTable("feed", rel.NewSchema([]string{"fid", "twid", "uid"}, []string{"fid", "twid"})))
	onTwid := []string{"twid"}
	// diffs returns n diff tuples of the given width over one backing array;
	// storage copies what it stores, so a round overwrites them in place.
	diffs := func(n, width int) []rel.Tuple {
		rows, vals := make([]rel.Tuple, n), make([]rel.Value, n*width)
		for i := range rows {
			rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
		}
		return rows
	}
	// deliveries fills rows with tweet tw's diff tuples, in attribute order.
	deliveries := func(rows []rel.Tuple, tw int64) {
		for j, row := range rows {
			row[0], row[1], row[2] = rel.Int((tw*7+int64(j)*3)%followers), rel.Int(tw), rel.Int(tw%97)
		}
	}
	keyCol, inOrder := []int{0}, []int{0, 1, 2}
	apply := func(retract, deliver []rel.Tuple) {
		if p, n, err := tab.DeleteWhere(onTwid, retract, keyCol, nil); p != len(retract) || n != len(retract)*fanout || err != nil {
			b.Fatalf("DeleteWhere = %d, %d, %v; want %d keys, %d rows", p, n, err, len(retract), len(retract)*fanout)
		}
		if p, n, err := tab.InsertIfAbsent(deliver, inOrder, nil); p != len(deliver) || n != len(deliver) || err != nil {
			b.Fatalf("InsertIfAbsent = %d, %d, %v; want %d rows", p, n, err, len(deliver))
		}
	}
	retract, deliver := diffs(perRound, 1), diffs(perRound*fanout, 3)
	for tw := int64(0); tw < tweets; tw++ {
		deliveries(deliver[:fanout], tw)
		apply(nil, deliver[:fanout])
	}
	for _, attrs := range [][]string{onTwid, {"fid"}} {
		if _, err := tab.Lookup(rel.StatePost, attrs, []rel.Value{rel.Int(0)}); err != nil {
			b.Fatal(err)
		}
	}
	tab.BeginEpoch()
	defer tab.EndEpoch()
	oldest, next := int64(0), int64(tweets)
	round := func() {
		for i := range retract {
			retract[i][0] = rel.Int(oldest)
			deliveries(deliver[i*fanout:(i+1)*fanout], next)
			oldest, next = oldest+1, next+1
		}
		apply(retract, deliver)
		tab.AdvanceEpoch()
	}
	round() // sizes the scratch buffers, the free list and the undo list
	tab.SetCounter(&cost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(cost.Total())/float64(b.N), "accesses/op")
}
