// Streaming delta subscriptions: every committed maintenance round, the
// dispatcher publishes the i-diffs that round applied to each subscribed
// view — the same per-view feed (ivm.PhaseCosts.Applied) that cascaded
// views consume through the derived modification log, pushed outward to
// in-process consumers instead.
//
// Delivery discipline: publication happens inside the dispatcher
// goroutine, after MaintainAll returns and before the batch's Pendings
// resolve. One Delta per committed round per subscription, in round
// order; a full subscriber buffer blocks the dispatcher (bounded-buffer
// backpressure — a slow consumer throttles the write path rather than
// dropping or reordering deltas). Close a subscription to release the
// dispatcher: it drops the subscription and closes the channel at the
// next publication (or at server Close), so a receiver ranging over C()
// drains any buffered deltas and then terminates. Server.Close is the
// other release: once teardown begins, delivery degrades to best-effort
// (a delta that doesn't fit a full buffer is dropped), so an abandoned
// subscription can never wedge shutdown.

package serve

import (
	"fmt"
	"sync"

	"idivm/internal/ivm"
)

// Delta is one committed round's applied i-diffs for one view. Rounds are
// numbered per server, monotonically, starting at 1; a round that did not
// touch the view carries an empty Diffs. The instances are the round's own,
// handed over untouched: each holds the columns its APPLY read, and a
// subscriber that wants tuples asks Instance.Tuples, which builds them once,
// on the asking goroutine — the dispatcher never does, and a delta may be
// read long after later rounds committed. Treat the rows as read-only.
type Delta struct {
	Round int64
	View  string
	Diffs []*ivm.Instance
}

// Subscription is a bounded-buffer stream of one view's per-round deltas.
// Create with Server.Subscribe; receive on C; Close to unsubscribe.
type Subscription struct {
	view string
	ch   chan Delta
	done chan struct{}
	once sync.Once
}

// View returns the subscribed view's name.
func (sub *Subscription) View() string { return sub.view }

// C returns the delta channel. It is closed by the server — at the first
// publication after Close, or when the server itself closes — so ranging
// over it drains buffered deltas and then terminates.
func (sub *Subscription) C() <-chan Delta { return sub.ch }

// Close unsubscribes: the dispatcher stops delivering (and unblocks, if
// it was blocked on this subscription's full buffer), then closes C's
// channel at its next publication or at server close. Safe to call more
// than once, and concurrently with receives.
func (sub *Subscription) Close() { sub.once.Do(func() { close(sub.done) }) }

// Subscribe registers a delta subscription on a registered view. buf
// bounds the channel buffer (≤ 0 picks the default, 16): once it fills,
// the dispatcher blocks before resolving the round's writes — bounded
// memory, at the price of coupling write latency to the slowest
// subscriber. Returns an error for an unknown view or a closed server.
func (s *Server) Subscribe(view string, buf int) (*Subscription, error) {
	if _, ok := s.sys.View(view); !ok {
		return nil, fmt.Errorf("serve: subscribe to unknown view %q", view)
	}
	if buf <= 0 {
		buf = 16
	}
	sub := &Subscription{view: view, ch: make(chan Delta, buf), done: make(chan struct{})}
	// The RLock pairs with Close's Lock exactly like enqueue's: a
	// subscription admitted here is observed by the dispatcher's teardown,
	// so its channel is always closed.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.subMu.Lock()
	s.subs = append(s.subs, sub)
	s.subMu.Unlock()
	return sub, nil
}

// publish delivers one committed round's reports to every subscription,
// in subscription order. Runs only on the dispatcher goroutine — the
// single-goroutine discipline that makes round order trivial — and only
// for successful rounds (a failed round applied no consistent state and
// keeps its log for retry).
func (s *Server) publish(reports []*ivm.Report) {
	s.subMu.Lock()
	subs := append([]*Subscription(nil), s.subs...)
	s.subMu.Unlock()
	if len(subs) == 0 {
		s.roundSeq++
		return
	}
	byView := make(map[string][]*ivm.Instance, len(reports))
	for _, r := range reports {
		byView[r.View] = r.Phases.Applied
	}
	s.roundSeq++
	for _, sub := range subs {
		// A closed subscription is dropped before (or instead of) delivery,
		// whichever of the two selects observes done first.
		select {
		case <-sub.done:
			s.dropSub(sub)
			continue
		default:
		}
		d := Delta{Round: s.roundSeq, View: sub.view, Diffs: byView[sub.view]}
		select {
		case sub.ch <- d:
		case <-sub.done:
			s.dropSub(sub)
		case <-s.quit:
			// Server teardown: backpressure must not outlive the server. An
			// abandoned subscription — full buffer, never received on, never
			// Closed — would otherwise wedge the dispatcher here and make
			// Server.Close hang forever on <-s.done. Once quit fires,
			// delivery degrades to best-effort: take the slot if one is
			// free, drop the delta otherwise; closeSubs closes the channel
			// right after the final commit, so a live receiver still drains
			// whatever fit in the buffer.
			select {
			case sub.ch <- d:
			case <-sub.done:
				s.dropSub(sub)
			default:
			}
		}
	}
}

// dropSub removes a subscription from the registry and closes its
// channel. Dispatcher goroutine only.
func (s *Server) dropSub(sub *Subscription) {
	s.subMu.Lock()
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
	s.subMu.Unlock()
	close(sub.ch)
}

// closeSubs closes every remaining subscription channel at server
// teardown. Dispatcher goroutine only, after the final commit.
func (s *Server) closeSubs() {
	s.subMu.Lock()
	subs := s.subs
	s.subs = nil
	s.subMu.Unlock()
	for _, sub := range subs {
		close(sub.ch)
	}
}
