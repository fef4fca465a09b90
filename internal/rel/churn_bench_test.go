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
			bucket, setBucket := intBatch(1, 1) // the one-row delete instance
			keyCol := []int{0}
			cycle := func(c int64) {
				g := rel.Int(-1 - c)
				for i := int64(0); i < int64(k); i++ {
					row[0], row[1], row[2], row[3] = rel.Int(-1-i), g, rel.Int(-1-i), rel.Int(c)
					if err := tab.Insert(row); err != nil {
						b.Fatal(err)
					}
				}
				setBucket(0, 0, -1-c)
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
	// The two instances' columns; storage copies what it stores, so a round
	// overwrites them in place.
	retract, setRetract := intBatch(perRound, 1)
	deliver, setDeliver := intBatch(perRound*fanout, 3)
	// deliveries fills deliver's rows lo.. with tweet tw's diff rows, in
	// attribute order.
	deliveries := func(lo int, tw int64) {
		for j := 0; j < fanout; j++ {
			setDeliver(lo+j, 0, (tw*7+int64(j)*3)%followers)
			setDeliver(lo+j, 1, tw)
			setDeliver(lo+j, 2, tw%97)
		}
	}
	keyCol, inOrder := []int{0}, []int{0, 1, 2}
	apply := func(retract, deliver *rel.Batch) {
		if p, n, err := tab.DeleteWhere(onTwid, retract, keyCol, nil); p != retract.N || n != retract.N*fanout || err != nil {
			b.Fatalf("DeleteWhere = %d, %d, %v; want %d keys, %d rows", p, n, err, retract.N, retract.N*fanout)
		}
		if p, n, err := tab.InsertIfAbsent(deliver, inOrder, nil); p != deliver.N || n != deliver.N || err != nil {
			b.Fatalf("InsertIfAbsent = %d, %d, %v; want %d rows", p, n, err, deliver.N)
		}
	}
	for tw := int64(0); tw < tweets; tw++ {
		deliveries(0, tw)
		apply(retract.Slice(0, 0), deliver.Slice(0, fanout))
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
		for i := 0; i < perRound; i++ {
			setRetract(i, 0, oldest)
			deliveries(i*fanout, next)
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

// intBatch is an n-row batch of width int columns, all zero, that a benchmark
// rewrites in place between instances through set, which writes v into row
// i's column j.
func intBatch(n, width int) (b *rel.Batch, set func(i, j int, v int64)) {
	b = &rel.Batch{Schema: rel.NewSchema(make([]string, width), nil), Cols: make([]rel.ColVec, width), N: n}
	for j := range b.Cols {
		b.Cols[j] = rel.ColVec{Kind: rel.VecInt, Nums: make([]uint64, n)}
	}
	return b, func(i, j int, v int64) { b.Cols[j].Nums[i] = uint64(v) }
}
