// Package serve is the concurrent front door over db.Database and
// ivm.System: epoch-pinned snapshot reads that never block on (and are
// never torn by) an in-flight maintenance round, plus a group-commit
// dispatcher that funnels concurrent writers into the single-writer
// modification log and triggers batched maintenance rounds.
//
// # Pinning rule
//
// Every stored table keeps two addressable states: StatePost (live) and
// StatePre (the contents as of the moment the epoch opened or last
// advanced, which the engine keeps as an undo overlay). The pinning rule
// is not the server's: it is every ivm.System's one epoch protocol. Every
// view, cache and logged base table lives in a *permanent* epoch, and each
// successful MaintainAll round ends by atomically refreezing each
// pre-state at the new post-state (AdvanceEpoch, in db.ResetLog); a failed
// one rolls the views back and leaves every pre-state where it was. New
// only calls System.PinAllEpochs, the protocol's idempotent begin. The
// invariant serving reads are built on:
//
//	StatePre == some completed round's frozen post-state, always.
//
// So a snapshot reader simply reads StatePre. It never waits for a round
// — maintenance and batched writes change StatePost only: stored tuples
// are immutable (updates store a clone), every write first sets aside the
// pre-image it is about to replace, and a whole-table pre-state read
// returns a frozen slice no later write touches. A reader shares nothing
// with the single writer but the per-table lock, held per operation.
// The one consistency hazard is the advance window at round end: the
// sweep refreezes tables one at a time, so a reader overlapping it could
// combine tables from two rounds.
// A seqlock brackets exactly that window: the round hooks bump
// Server.pinSeq to odd when the advance begins and back to even when it
// ends; readers retry if they started during, or were overlapped by, an
// advance. The window is one advance sweep, whose cost is proportional to
// the rows the round wrote and orders of magnitude below the round's —
// retries are rare and short — while rounds themselves, however long,
// never delay a read.
//
// Unlogged base tables feed no view and get no epoch: a snapshot query
// touching one reads its live state, which is only stable if nothing is
// concurrently writing that table.
//
// # Charge model
//
// Snapshot reads are uncharged, like IndexCard: they are reads of an
// already-paid-for materialization, not maintenance work, and the
// paper's access-count metric must stay byte-identical whether or not
// readers are attached. Server counts them in its own Stats instead.
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
)

// Options tunes the group-commit dispatcher.
type Options struct {
	// MaxBatch cuts a batch when this many modifications are pending
	// (default 128). Bigger batches amortize better under the paper's §5
	// log compaction; smaller ones bound write latency.
	MaxBatch int
	// MaxDelay cuts a batch this long after its first modification
	// arrived, bounding write latency under trickle load. Zero or
	// negative (the default) commits every modification immediately;
	// set it explicitly to trade write latency for batching.
	MaxDelay time.Duration
	// Queue is the enqueue buffer capacity (default 1024). A full queue
	// makes enqueuers block until the dispatcher catches up.
	Queue int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.Queue <= 0 {
		o.Queue = 1024
	}
	return o
}

// Stats are cumulative serving-side counters, separate from the
// database's access counters by design (see the charge model above).
type Stats struct {
	// SnapshotReads counts completed ViewSnapshot/QuerySnapshot calls.
	SnapshotReads int64
	// SnapshotRetries counts reads that overlapped an unpin window and
	// retried.
	SnapshotRetries int64
	// Ops counts modifications applied through the dispatcher.
	Ops int64
	// Batches counts group-commit batches (= maintenance rounds the
	// dispatcher triggered).
	Batches int64
	// Rounds counts completed MaintainAll rounds observed via the hooks
	// (including any driven outside the dispatcher).
	Rounds int64
	// PlanCacheHits counts SQL reads (QuerySnapshot, the facade's Query) that
	// ran their statement shape's idle compiled plan with their own literals
	// bound: a shape hit, whatever the literals. PlanCacheMisses counts the
	// ones that compiled a plan, or failed to parse.
	PlanCacheHits   int64
	PlanCacheMisses int64
}

// Server coordinates concurrent snapshot readers and a single
// group-commit dispatcher over one database. Create with New, which
// installs the round hooks and starts the dispatcher; Close stops it.
type Server struct {
	d    *db.Database
	sys  *ivm.System
	opts Options

	// pinSeq is the seqlock guarding the advance window: odd while a
	// round's snapshots are being refrozen, even otherwise. Readers
	// snapshot it before and after reading StatePre and retry on odd or
	// changed.
	pinSeq atomic.Uint64

	snapshotReads   atomic.Int64
	snapshotRetries atomic.Int64
	ops             atomic.Int64
	batches         atomic.Int64
	rounds          atomic.Int64

	opCh    chan *pendingOp
	flushCh chan chan error

	plans *PlanCache // runs the database's SQL reads on compiled plans

	// subs are the live delta subscriptions; roundSeq numbers committed
	// rounds for Delta.Round and is touched only by the dispatcher.
	subMu    sync.Mutex
	subs     []*Subscription
	roundSeq int64

	closeMu  sync.RWMutex // serializes enqueue/flush/subscribe against Close
	closed   bool
	quit     chan struct{}
	done     chan struct{}
	closeErr error // the final round's, set by the dispatcher before done closes
}

// New wires a server onto the database and its IVM system: it composes
// the seqlock into any round hooks already installed,
// and starts the dispatcher goroutine. The system's MaintainAll must from
// now on be driven only through this server (Flush or batched writes) —
// the dispatcher is the single writer.
func New(d *db.Database, sys *ivm.System, opts Options) *Server {
	s := &Server{
		d:     d,
		sys:   sys,
		opts:  opts.withDefaults(),
		plans: NewPlanCache(d),
	}
	s.opCh = make(chan *pendingOp, s.opts.Queue)
	s.flushCh = make(chan chan error)
	s.quit = make(chan struct{})
	s.done = make(chan struct{})

	prev := sys.Hooks
	sys.Hooks = ivm.RoundHooks{
		RoundBegin: prev.RoundBegin,
		UnpinBegin: func() {
			s.pinSeq.Add(1) // odd: advance window open
			if prev.UnpinBegin != nil {
				prev.UnpinBegin()
			}
		},
		RoundEnd: func() {
			s.pinSeq.Add(1) // even: snapshots stable again
			s.rounds.Add(1)
			if prev.RoundEnd != nil {
				prev.RoundEnd()
			}
		},
	}
	// Every epoch is open before any reader or writer exists, so snapshot
	// reads are epoch-isolated from the very first batch.
	sys.PinAllEpochs()

	s.start()
	return s
}

// Stats returns a copy of the cumulative serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		SnapshotReads:   s.snapshotReads.Load(),
		SnapshotRetries: s.snapshotRetries.Load(),
		Ops:             s.ops.Load(),
		Batches:         s.batches.Load(),
		Rounds:          s.rounds.Load(),
		PlanCacheHits:   s.plans.hits.Load(),
		PlanCacheMisses: s.plans.misses.Load(),
	}
}

// read runs fn under the seqlock: it retries whenever the attempt started
// inside, or was overlapped by, an unpin window, so the returned value is
// a consistent picture of one completed round. fn must only read
// StatePre through uncharged paths.
func (s *Server) read(fn func() (*rel.Relation, error)) (*rel.Relation, error) {
	for {
		s1 := s.pinSeq.Load()
		if s1&1 == 0 {
			r, err := fn()
			if err != nil {
				return nil, err
			}
			if s.pinSeq.Load() == s1 {
				s.snapshotReads.Add(1)
				return r, nil
			}
		}
		s.snapshotRetries.Add(1)
		runtime.Gosched()
	}
}

// ViewSnapshot returns the contents of a materialized view or cache as of
// the last completed maintenance round. It is wait-free with respect to
// maintenance: an in-flight round never delays it, and its result is
// never torn (all rows belong to the same round). The read is uncharged.
func (s *Server) ViewSnapshot(name string) (*rel.Relation, error) {
	t, err := s.d.Table(name)
	if err != nil {
		return nil, err
	}
	h := t.WithCounter(nil)
	return s.read(func() (*rel.Relation, error) {
		return h.Relation(rel.StatePre), nil
	})
}

// Plans returns the server's plan cache, which the facade's Query shares.
func (s *Server) Plans() *PlanCache { return s.plans }

// QuerySnapshot evaluates an ad-hoc SELECT against the pinned snapshot:
// every stored table in the plan is read in StatePre, so the result is
// consistent with the last completed round (for logged base tables and
// materialized views; an unlogged table has no snapshot machinery and
// reads live). Uncharged, like ViewSnapshot. The compiled plan comes from
// the plan cache and stays checked out across the seqlock's retries.
func (s *Server) QuerySnapshot(sql string) (*rel.Relation, error) {
	env := db.Uncharged{Database: s.d}
	return s.plans.Read(sql, rel.StatePre, func(p *algebra.ExecPlan) (*rel.Relation, error) {
		return s.read(func() (*rel.Relation, error) { return p.Run(env) })
	})
}
