package blockchain

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"healthcloud/internal/telemetry"
)

// ErrBatcherClosed is returned by Submit/SubmitCtx after Close.
var ErrBatcherClosed = errors.New("blockchain: batcher closed")

// BatcherConfig sizes the group-commit writer.
type BatcherConfig struct {
	// MaxBatch is the largest group committed at once (default 64).
	MaxBatch int
	// Registry/Tracer instrument the batcher (either may be nil).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// BatchSizeBuckets are the bucket bounds of ledger_batch_size: batch
// sizes recorded as whole "seconds" so they fit the fixed-bucket latency
// histogram (a size-12 batch lands in the ≤16 bucket).
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// BatcherStats is a point-in-time copy of the batcher's commit counters.
type BatcherStats struct {
	Commits   uint64 // group commits issued (including singletons)
	Txs       uint64 // transactions acknowledged through the batcher
	Fallbacks uint64 // group commits that fell back to individual submission
}

// MeanBatchSize is transactions per commit (0 before the first commit).
func (s BatcherStats) MeanBatchSize() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Txs) / float64(s.Commits)
}

// pendingTx is one waiter in the group-commit queue.
type pendingTx struct {
	tx      Transaction
	timeout time.Duration
	parent  telemetry.SpanContext
	size    int        // group size, set before done is signalled
	done    chan error // buffered(1); receives exactly one result
}

// Batcher is a group-commit ledger writer: concurrent producers enqueue
// single transactions and a committer goroutine commits whatever is
// queued the moment the previous commit returns: a lone transaction on
// an idle batcher commits at once, and arrivals during an in-flight
// commit form the next group (one SubmitBatchCtx call, result fanned
// back to every waiter). There is no timer — group size follows load.
// Per-caller semantics are unchanged — each Submit returns its
// transaction's own success or failure — while endorsement and ordering
// cost is amortized across the group (experiment E17). It satisfies the
// same contract as Network.Submit / SubmitCtx, so ingest can use either
// interchangeably.
type Batcher struct {
	net *Network
	cfg BatcherConfig

	mu     sync.Mutex
	queue  []*pendingTx
	closed bool

	kick   chan struct{} // non-blocking doorbell from enqueuers
	stopCh chan struct{}
	doneCh chan struct{}

	commits, txs, fallbacks atomic.Uint64

	met *batcherMetrics
}

type batcherMetrics struct {
	depth     *telemetry.Gauge
	batchSize *telemetry.Histogram
	commitLat *telemetry.Histogram
	commits   *telemetry.Counter
	txs       *telemetry.Counter
	fallbacks *telemetry.Counter
}

func newBatcherMetrics(reg *telemetry.Registry, network string) *batcherMetrics {
	if reg == nil {
		return nil
	}
	label := "{network=" + strconv.Quote(network) + "}"
	return &batcherMetrics{
		depth:     reg.Gauge("ledger_batch_queue_depth" + label),
		batchSize: reg.HistogramWithBuckets("ledger_batch_size"+label, BatchSizeBuckets),
		commitLat: reg.Histogram("ledger_group_commit_seconds" + label),
		commits:   reg.Counter("ledger_group_commits_total" + label),
		txs:       reg.Counter("ledger_group_txs_total" + label),
		fallbacks: reg.Counter("ledger_group_fallbacks_total" + label),
	}
}

// NewBatcher starts a group-commit writer in front of net. Close it
// before closing the network.
func NewBatcher(net *Network, cfg BatcherConfig) *Batcher {
	b := &Batcher{
		net:    net,
		cfg:    cfg.withDefaults(),
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		met:    newBatcherMetrics(cfg.Registry, net.Name()),
	}
	go b.run()
	return b
}

// Submit enqueues one transaction and blocks until its group commits.
func (b *Batcher) Submit(tx Transaction, timeout time.Duration) error {
	return b.SubmitCtx(tx, timeout, telemetry.SpanContext{})
}

// SubmitCtx is Submit continuing a caller's trace: the wait for the
// group commit appears as a ledger.batch-wait span under parent
// (ingest.Ledger).
func (b *Batcher) SubmitCtx(tx Transaction, timeout time.Duration, parent telemetry.SpanContext) error {
	p := &pendingTx{tx: tx, timeout: timeout, parent: parent, done: make(chan error, 1)}
	sp := b.tracer().StartSpan("ledger.batch-wait", parent)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		sp.SetAttr("error", ErrBatcherClosed.Error())
		sp.End()
		return ErrBatcherClosed
	}
	b.queue = append(b.queue, p)
	depth := len(b.queue)
	b.mu.Unlock()
	if b.met != nil {
		b.met.depth.Set(int64(depth))
	}
	select {
	case b.kick <- struct{}{}:
	default:
	}
	err := <-p.done
	sp.SetAttr("group", strconv.Itoa(p.size))
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

func (b *Batcher) tracer() *telemetry.Tracer { return b.cfg.Tracer }

// QueueDepth reports how many transactions are waiting for a commit.
func (b *Batcher) QueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Stats returns the batcher's cumulative commit counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Commits:   b.commits.Load(),
		Txs:       b.txs.Load(),
		Fallbacks: b.fallbacks.Load(),
	}
}

// Flush synchronously commits everything queued at the time of the call,
// fanning results back to the waiting producers. Safe to call
// concurrently with the committer: take removes entries atomically, so
// no transaction is ever committed twice by racing flushers.
func (b *Batcher) Flush() {
	for {
		batch := b.take()
		if len(batch) == 0 {
			return
		}
		b.commit(batch)
	}
}

// Close drains the queue (every accepted transaction is committed and
// its waiter signalled) and stops the committer. Subsequent submits
// return ErrBatcherClosed. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.doneCh
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stopCh)
	<-b.doneCh
}

// run is the committer loop: sleep until kicked, then commit everything
// queued in MaxBatch-sized groups. Enqueues during a commit leave the
// doorbell rung, so the next round picks them up as one group.
func (b *Batcher) run() {
	defer close(b.doneCh)
	for {
		select {
		case <-b.stopCh:
			// closed was set before stopCh closed, and every accepted
			// enqueue appended under the same mutex — this final drain
			// provably sees all of them.
			b.Flush()
			return
		case <-b.kick:
			b.Flush()
		}
	}
}

// take removes up to MaxBatch waiters from the queue.
func (b *Batcher) take() []*pendingTx {
	b.mu.Lock()
	n := len(b.queue)
	if n > b.cfg.MaxBatch {
		n = b.cfg.MaxBatch
	}
	batch := b.queue[:n:n]
	if n == len(b.queue) {
		// Full drain (the common case): hand the backing array to the
		// batch and keep the empty tail. Later enqueues append at
		// indices >= n of a capacity-clipped slice, so they can never
		// alias the batch being committed.
		b.queue = b.queue[n:]
	} else {
		b.queue = append([]*pendingTx(nil), b.queue[n:]...)
	}
	depth := len(b.queue)
	b.mu.Unlock()
	if b.met != nil {
		b.met.depth.Set(int64(depth))
	}
	return batch
}

// commit submits one group — a lone waiter is a group of one — and fans
// the result back to each waiter. A failed group of several falls back
// to individual submission so one poison transaction cannot fail its
// neighbors; the ledger's append-time dedup by transaction ID keeps this
// exactly-once even if the group commit landed after its timeout.
func (b *Batcher) commit(batch []*pendingTx) {
	txs := make([]Transaction, len(batch))
	var timeout time.Duration
	for i, p := range batch {
		txs[i] = p.tx
		if p.timeout > timeout {
			timeout = p.timeout
		}
	}
	sp := b.tracer().StartSpan("ledger.group-commit", telemetry.SpanContext{})
	sc := sp.Context()
	sp.SetAttr("network", b.net.Name())
	sp.SetAttr("batch", strconv.Itoa(len(batch)))
	// A lone waiter's submit continues its own trace; a group's nests
	// under the group-commit span.
	parent := sc
	if len(batch) == 1 {
		parent = batch[0].parent
	}
	start := time.Now()
	err := b.net.SubmitBatchCtx(txs, timeout, parent)
	fallback := err != nil && len(batch) > 1
	if fallback {
		sp.SetAttr("fallback", err.Error())
		b.fallbacks.Add(1)
		if b.met != nil {
			b.met.fallbacks.Inc()
		}
	}
	for _, p := range batch {
		p.size = len(batch)
		if fallback {
			p.done <- b.net.SubmitCtx(p.tx, p.timeout, p.parent)
		} else {
			p.done <- err
		}
	}
	b.commits.Add(1)
	b.txs.Add(uint64(len(batch)))
	if b.met != nil {
		b.met.commits.Inc()
		b.met.txs.Add(uint64(len(batch)))
		b.met.batchSize.Observe(time.Duration(len(batch)) * time.Second)
		b.met.commitLat.ObserveTrace(time.Since(start), sc.TraceID)
	}
	sp.End()
	// The group-commit span is its own root trace; it is complete here.
	b.tracer().FinishTrace(sc.TraceID)
}
