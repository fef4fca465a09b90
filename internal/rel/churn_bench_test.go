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
			cycle := func(c int64) {
				g := rel.Int(-1 - c)
				for i := int64(0); i < int64(k); i++ {
					row[0], row[1], row[2], row[3] = rel.Int(-1-i), g, rel.Int(-1-i), rel.Int(c)
					if err := tab.Insert(row); err != nil {
						b.Fatal(err)
					}
				}
				key[0] = g
				if got, err := tab.DeleteWhere(onG, key, nil); got != k || err != nil {
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
// pinned. One iteration retracts 64 tweets (DeleteWhere on twid, 190 rows
// each), delivers 64 new ones (12 160 InsertIfAbsent) and advances the epoch.
// Every removed row leaves the primary index, the dropped twid chain and the
// middle of some follower's fid chain; every inserted row joins all three.
// accesses/op is constant; ns/op and allocs/op are what the row is for.
func BenchmarkFeedApplyShape(b *testing.B) {
	const tweets, fanout, followers, perRound = 500, 190, 2000, 64
	var cost rel.CostCounter
	tab := storage.NewHandle(rel.MustNewTable("feed", rel.NewSchema([]string{"fid", "twid", "uid"}, []string{"fid", "twid"})))
	row, key := make(rel.Tuple, 3), make([]rel.Value, 1)
	deliver := func(tw int64) {
		for j := int64(0); j < fanout; j++ {
			row[0], row[1], row[2] = rel.Int((tw*7+j*3)%followers), rel.Int(tw), rel.Int(tw%97)
			if ok, err := tab.InsertIfAbsent(row); !ok || err != nil {
				b.Fatalf("InsertIfAbsent(%v) = %v, %v", row, ok, err)
			}
		}
	}
	for tw := int64(0); tw < tweets; tw++ {
		deliver(tw)
	}
	onTwid := []string{"twid"}
	for _, attrs := range [][]string{onTwid, {"fid"}} {
		if _, err := tab.Lookup(rel.StatePost, attrs, key); err != nil {
			b.Fatal(err)
		}
	}
	tab.BeginEpoch()
	defer tab.EndEpoch()
	oldest, next := int64(0), int64(tweets)
	round := func() {
		for i := 0; i < perRound; i++ {
			key[0] = rel.Int(oldest)
			if n, err := tab.DeleteWhere(onTwid, key, nil); n != fanout || err != nil {
				b.Fatalf("DeleteWhere(twid=%d) = %d, %v; want %d", oldest, n, err, fanout)
			}
			oldest++
		}
		for i := 0; i < perRound; i++ {
			deliver(next)
			next++
		}
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
