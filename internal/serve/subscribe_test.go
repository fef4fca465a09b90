package serve_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/serve"
)

// updateBatch enqueues n distinct-key price updates and flushes, i.e.
// commits exactly one maintenance round under flushOpts.
func updateBatch(t testing.TB, s *served, n, price int) {
	t.Helper()
	pend := make([]*serve.Pending, 0, n)
	for j := 0; j < n; j++ {
		pend = append(pend, s.srv.EnqueueUpdate("parts",
			[]rel.Value{rel.Int(int64(j * 7 % 200))},
			[]string{"price"}, []rel.Value{rel.Int(int64(price))}))
	}
	if err := s.srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
}

// recvDelta receives one delta with a timeout so a delivery bug fails the
// test instead of hanging it.
func recvDelta(t testing.TB, sub *serve.Subscription) serve.Delta {
	t.Helper()
	select {
	case d, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription channel closed early")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no delta within 5s")
	}
	panic("unreachable")
}

// TestSubscribeStreamsAppliedDiffs is the acceptance test for the
// subscription feed: every committed round delivers exactly the i-diffs
// the round applied to the view, in round order — verified by replaying
// the stream onto a copy of the initial view state and comparing with
// ViewSnapshot after every round.
func TestSubscribeStreamsAppliedDiffs(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			s := newServedOn(t, eng.mk, flushOpts)
			sub, err := s.srv.Subscribe(testView, 0)
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			defer sub.Close()
			if sub.View() != testView {
				t.Fatalf("View() = %q", sub.View())
			}

			// Shadow copy of the view, maintained only by replaying deltas.
			snap, err := s.srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot: %v", err)
			}
			shadow := db.New().MustCreateTable("shadow", snap.Schema)
			for _, row := range snap.Tuples {
				if err := shadow.Insert(row); err != nil {
					t.Fatalf("seeding shadow: %v", err)
				}
			}

			for round := 1; round <= 5; round++ {
				updateBatch(t, s, 40, 1000+round)
				d := recvDelta(t, sub)
				if d.Round != int64(round) || d.View != testView {
					t.Fatalf("delta (round=%d view=%q), want (round=%d view=%q)",
						d.Round, d.View, round, testView)
				}
				if len(d.Diffs) == 0 {
					t.Fatalf("round %d: delta carries no i-diffs", round)
				}
				for _, inst := range d.Diffs {
					if inst.Schema.Rel != testView {
						t.Fatalf("round %d: diff targets %q", round, inst.Schema.Rel)
					}
					if _, err := inst.Apply(shadow); err != nil {
						t.Fatalf("round %d: replay: %v", round, err)
					}
				}
				want, err := s.srv.ViewSnapshot(testView)
				if err != nil {
					t.Fatalf("round %d: ViewSnapshot: %v", round, err)
				}
				got := shadow.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)
				got.Schema = snap.Schema // same attrs; EqualSet checks names too
				if !got.EqualSet(want) {
					t.Fatalf("round %d: replayed state diverged:\n got %v\nwant %v",
						round, got.Sorted(), want.Sorted())
				}
			}
		})
	}
}

// TestServingSubscribersReadDeltaTuples: a delta's instances hold the
// columns their APPLY read, and a subscriber that wants tuples builds them on
// its own goroutine. Two subscribers on one view get the same instances and
// ask for their tuples concurrently (the race-enabled runs check the build is
// once-guarded); each round's delta is read only after the next round has
// committed, and replaying its tuples onto a shadow copy of the view must
// reproduce, byte for byte, the ViewSnapshot taken when that round committed.
func TestServingSubscribersReadDeltaTuples(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			s := newServedOn(t, eng.mk, flushOpts)
			var subs [2]*serve.Subscription
			for k := range subs {
				sub, err := s.srv.Subscribe(testView, 0)
				if err != nil {
					t.Fatalf("Subscribe: %v", err)
				}
				defer sub.Close()
				subs[k] = sub
			}
			snap, err := s.srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot: %v", err)
			}
			shadow := db.New().MustCreateTable("shadow", snap.Schema)
			for _, row := range snap.Tuples {
				if err := shadow.Insert(row); err != nil {
					t.Fatalf("seeding shadow: %v", err)
				}
			}
			render := func(r *rel.Relation) string { return fmt.Sprint(r.Sorted().Tuples) }

			var late [2]serve.Delta // the previous round's deltas, unread so far
			var lateWant string     // the view when that round committed
			for round := 1; round <= 6; round++ {
				updateBatch(t, s, 40, 1000+round)
				var now [2]serve.Delta
				for k, sub := range subs {
					if now[k] = recvDelta(t, sub); now[k].Round != int64(round) || len(now[k].Diffs) == 0 {
						t.Fatalf("subscriber %d: delta of round %d with %d diffs, want round %d with diffs", k, now[k].Round, len(now[k].Diffs), round)
					}
				}
				if round > 1 {
					// Round-1 tuples, first built now that round has committed.
					var got [2][][]rel.Tuple
					var wg sync.WaitGroup
					for k := range late {
						wg.Add(1)
						//ivmlint:allow gostmt — test subscribers reading one delta concurrently
						go func(k int) {
							defer wg.Done()
							for _, inst := range late[k].Diffs {
								got[k] = append(got[k], inst.Tuples())
							}
						}(k)
					}
					wg.Wait()
					for i, inst := range late[0].Diffs {
						if late[1].Diffs[i] != inst || fmt.Sprint(got[0][i]) != fmt.Sprint(got[1][i]) {
							t.Fatalf("round %d: the two subscribers got different instance %d", round-1, i)
						}
						replay := &ivm.Instance{Schema: inst.Schema, Rows: &rel.Relation{Schema: inst.RowSchema(), Tuples: got[0][i]}}
						if _, err := replay.Apply(shadow); err != nil {
							t.Fatalf("round %d: replay: %v", round-1, err)
						}
					}
					if got := render(shadow.WithCounter(new(rel.CostCounter)).Relation(rel.StatePost)); got != lateWant {
						t.Fatalf("round %d, read after round %d committed: replayed state diverged:\n got %s\nwant %s", round-1, round, got, lateWant)
					}
				}
				want, err := s.srv.ViewSnapshot(testView)
				if err != nil {
					t.Fatalf("round %d: ViewSnapshot: %v", round, err)
				}
				late, lateWant = now, render(want)
			}
		})
	}
}

// TestSubscribeBackpressure pins the bounded-buffer contract: with a full
// buffer the dispatcher blocks (writes don't commit) until the consumer
// drains or unsubscribes.
func TestSubscribeBackpressure(t *testing.T) {
	s := newServed(t, flushOpts)
	sub, err := s.srv.Subscribe(testView, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	updateBatch(t, s, 10, 1) // round 1 fills the 1-slot buffer

	done := make(chan struct{})
	//ivmlint:allow gostmt — test writer goroutine blocked by backpressure
	go func() {
		defer close(done)
		p := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(0)},
			[]string{"price"}, []rel.Value{rel.Int(2)})
		if err := s.srv.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		if err := p.Wait(); err != nil {
			t.Errorf("Wait: %v", err)
		}
	}()

	select {
	case <-done:
		t.Fatal("round 2 committed past a full subscriber buffer")
	case <-time.After(100 * time.Millisecond):
		// blocked, as required
	}
	if d := recvDelta(t, sub); d.Round != 1 {
		t.Fatalf("drained round %d, want 1", d.Round)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher still blocked after the buffer drained")
	}
	if d := recvDelta(t, sub); d.Round != 2 {
		t.Fatalf("second delta round %d, want 2", d.Round)
	}
}

// TestSubscribeCloseDrains: Close stops delivery but a receiver ranging
// over C() still drains buffered deltas before the channel closes; and
// Close unblocks a dispatcher stuck on the closed subscription's buffer.
func TestSubscribeCloseDrains(t *testing.T) {
	s := newServed(t, flushOpts)
	sub, err := s.srv.Subscribe(testView, 4)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	updateBatch(t, s, 5, 1)
	updateBatch(t, s, 5, 2) // two deltas buffered
	sub.Close()
	updateBatch(t, s, 5, 3) // publish observes done: drops sub, closes ch

	var rounds []int64
	for d := range sub.C() {
		rounds = append(rounds, d.Round)
	}
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Fatalf("drained rounds %v, want [1 2]", rounds)
	}

	// A second Close is a no-op, not a panic.
	sub.Close()

	// Close releases a blocked dispatcher: fill a 1-slot buffer, start a
	// second round, then unsubscribe instead of draining.
	sub2, err := s.srv.Subscribe(testView, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	updateBatch(t, s, 5, 4)
	done := make(chan struct{})
	//ivmlint:allow gostmt — test writer goroutine blocked by backpressure
	go func() {
		defer close(done)
		p := s.srv.EnqueueInsert("parts", nil) // bad row: apply error, round still runs
		if err := s.srv.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		_ = p.Wait() // the apply error is the op's own, not the round's
	}()
	select {
	case <-done:
		t.Fatal("round committed past a full subscriber buffer")
	case <-time.After(100 * time.Millisecond):
	}
	sub2.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the blocked dispatcher")
	}
	for range sub2.C() { // drains the buffered round-4 delta, then closes
	}
}

// TestServerCloseUnblocksAbandonedSubscriber: a consumer that stops
// receiving without ever calling Subscription.Close must not wedge
// teardown. Round 2's publish blocks on the full 1-slot buffer;
// Server.Close has to break the backpressure loop (delivery degrades to
// best-effort once quit fires), resolve the in-flight writes, and still
// close the channel so the buffered delta drains.
func TestServerCloseUnblocksAbandonedSubscriber(t *testing.T) {
	s := newServed(t, flushOpts)
	sub, err := s.srv.Subscribe(testView, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	updateBatch(t, s, 5, 1) // round 1 fills the 1-slot buffer

	done := make(chan struct{})
	//ivmlint:allow gostmt — test writer goroutine blocked by backpressure
	go func() {
		defer close(done)
		p := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(0)},
			[]string{"price"}, []rel.Value{rel.Int(2)})
		if err := s.srv.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		if err := p.Wait(); err != nil {
			t.Errorf("blocked write resolved with %v after Close", err)
		}
	}()
	select {
	case <-done:
		t.Fatal("round 2 committed past a full subscriber buffer")
	case <-time.After(100 * time.Millisecond):
		// The dispatcher is wedged in publish and the subscriber is never
		// going to receive or unsubscribe.
	}

	closed := make(chan error, 1)
	//ivmlint:allow gostmt — watchdog so a teardown deadlock fails the test
	go func() { closed <- s.srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on the abandoned subscription")
	}
	<-done

	// The round-1 delta is still buffered (round 2's was dropped at
	// teardown); the channel is closed so the range terminates.
	var rounds []int64
	for d := range sub.C() {
		rounds = append(rounds, d.Round)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("drained rounds %v, want [1]", rounds)
	}
}

// TestSubscribeServerClose: server teardown closes every subscription
// channel after the final commit's deltas were delivered.
func TestSubscribeServerClose(t *testing.T) {
	s := newServed(t, flushOpts)
	sub, err := s.srv.Subscribe(testView, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	updateBatch(t, s, 5, 1)
	if err := s.srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var rounds []int64
	for d := range sub.C() {
		rounds = append(rounds, d.Round)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("drained rounds %v, want [1]", rounds)
	}
	// Subscribing after Close fails.
	if _, err := s.srv.Subscribe(testView, 0); err != serve.ErrClosed {
		t.Fatalf("Subscribe after Close: %v, want ErrClosed", err)
	}
}

// TestSubscribeUnknownView rejects names that aren't registered views.
func TestSubscribeUnknownView(t *testing.T) {
	s := newServed(t, flushOpts)
	_, err := s.srv.Subscribe("nope", 0)
	if err == nil || !strings.Contains(err.Error(), "unknown view") {
		t.Fatalf("Subscribe(nope): %v", err)
	}
	// Base tables are not subscribable either.
	if _, err := s.srv.Subscribe("parts", 0); err == nil {
		t.Fatal("Subscribe(parts) should fail: not a view")
	}
}

// TestSubscribeQuietRound: a committed round that doesn't touch the view
// still delivers a delta (with empty Diffs), keeping Round contiguous.
func TestSubscribeQuietRound(t *testing.T) {
	s := newServed(t, flushOpts)
	// A table no view reads: its writes commit rounds with no view work.
	s.ds.DB.MustCreateTable("side", rel.NewSchema([]string{"k", "v"}, []string{"k"}))
	sub, err := s.srv.Subscribe(testView, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	p := s.srv.EnqueueInsert("side", rel.Tuple{rel.Int(1), rel.Int(2)})
	if err := s.srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	d := recvDelta(t, sub)
	if d.Round != 1 || len(d.Diffs) != 0 {
		t.Fatalf("quiet round delta = (round=%d, %d diffs), want (1, 0)", d.Round, len(d.Diffs))
	}
	updateBatch(t, s, 5, 9)
	if d := recvDelta(t, sub); d.Round != 2 || len(d.Diffs) == 0 {
		t.Fatalf("follow-up delta = (round=%d, %d diffs), want round 2 with diffs", d.Round, len(d.Diffs))
	}
}
