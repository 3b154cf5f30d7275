package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"elsa"
)

// Errors surfaced by the dispatcher to the HTTP layer.
var (
	// ErrQueueFull means the submitting class's share of the bounded
	// dispatcher queue is at capacity; the caller should shed load
	// (HTTP 429).
	ErrQueueFull = errors.New("serve: dispatcher queue full")
	// ErrClosed means the server is draining for shutdown (HTTP 503).
	ErrClosed = errors.New("serve: server shutting down")
	// ErrDeadline means the op's remaining deadline cannot cover the
	// estimated queue wait, so it is shed immediately (HTTP 429 with
	// Retry-After) instead of timing out in queue.
	ErrDeadline = errors.New("serve: deadline cannot cover estimated queue wait")
	// ErrNoWorkers means no shard of the target replica set is available
	// — every remote worker is ejected and the frontend holds no local
	// replicas (HTTP 503 with Retry-After, so clients back off until a
	// probe re-admits a worker).
	ErrNoWorkers = errors.New("serve: no available workers")
)

// shedError wraps a shed sentinel with the Retry-After the HTTP layer
// should surface.
type shedError struct {
	sentinel   error
	retryAfter time.Duration
}

func (e *shedError) Error() string { return e.sentinel.Error() }
func (e *shedError) Unwrap() error { return e.sentinel }

// retryAfterOf extracts a shed error's Retry-After hint (0 when absent).
func retryAfterOf(err error) time.Duration {
	var se *shedError
	if errors.As(err, &se) {
		return se.retryAfter
	}
	return 0
}

// jobResult is what a dispatched job hands back to its waiting request.
type jobResult struct {
	out       *elsa.Output
	batchSize int
	shard     int
	err       error
}

// job is one queued attention op plus its completion channel. The op
// carries its own per-op threshold (BatchOp.Thr), which is what lets ops
// calibrated at different operating points share a dispatch. attempts
// counts reroutes after retryable worker failures; only the executing
// goroutine touches it. A job with dec set is one session's decode step
// riding the continuous decode loop instead of a windowed pending batch;
// batches never mix the two kinds (a decode batch is assembled by
// takeBatch, a one-shot batch by dispatchLocked).
type job struct {
	ctx      context.Context
	op       elsa.BatchOp
	dec      *decodeJob
	class    Class
	attempts int
	result   chan jobResult // buffered: dispatch never blocks on a gone requester
}

// pendingBatch accumulates jobs for one replica set until the window
// elapses or the batch fills, bucketed by priority class so dispatch can
// dequeue by weight.
type pendingBatch struct {
	jobs  [NumClasses][]*job
	count int
	due   time.Time // when this batch's window timer fires
}

// shard is one dispatch lane of a replica set: a bounded queue of
// detached micro-batches executed serially by the shard loop against its
// backend — an in-process engine replica or a remote worker — mirroring
// one accelerator unit consuming its own work queue. depth counts batches
// enqueued but not yet started. set points back at the owning replica
// set so a failed batch can reroute to a sibling shard.
type shard struct {
	id      int // lane index within its set
	stats   shardStats
	set     *replicaSet
	backend shardBackend
	queue   chan []*job
	depth   atomic.Int64
}

// newShard sizes the queue to the global op bound: the dispatcher admits
// at most maxQueue ops, every batch holds at least one op, and ops stay
// counted until their batch starts running, so a send can never block.
func newShard(id int, set *replicaSet, backend shardBackend, maxQueue int, m *Metrics) *shard {
	return &shard{id: id, stats: m.shard(id), set: set, backend: backend, queue: make(chan []*job, maxQueue)}
}

// dispatcher implements dynamic micro-batching over replicated engines:
// the first request for a replica set opens a batching window; requests
// arriving within it — whatever their thresholds or classes — coalesce
// into one pending batch. Dispatch dequeues by priority weight (the
// highest waiting class fills freely, lower classes are capped to their
// weight share and deferred ops stay pending), then routes the batch to
// the least-loaded shard of the set and executes it through
// AttendBatchContext with per-op thresholds.
type dispatcher struct {
	window        time.Duration
	maxBatch      int
	maxQueue      int
	workers       int
	retries       int           // reroute attempts per op after retryable worker failures
	noWorkerRetry time.Duration // Retry-After hint when no shard is available
	weights       classWeights
	metrics       *Metrics

	mu       sync.Mutex
	closed   bool
	queued   int
	queuedBy [NumClasses]int // queue occupancy per class, summing to queued
	svcEWMA  float64         // smoothed batch service time, seconds
	pending  map[*replicaSet]*pendingBatch
	batchWg  sync.WaitGroup // in-flight dispatched batches
	loopWg   sync.WaitGroup // running shard loops

	decStates []*decodeState // one continuous decode loop per replica set
	decWg     sync.WaitGroup // running decode loops
}

func newDispatcher(window time.Duration, maxBatch, maxQueue, workers, retries int, noWorkerRetry time.Duration, weights classWeights, m *Metrics) *dispatcher {
	return &dispatcher{
		window:        window,
		maxBatch:      maxBatch,
		maxQueue:      maxQueue,
		workers:       workers,
		retries:       retries,
		noWorkerRetry: noWorkerRetry,
		weights:       weights.normalize(),
		metrics:       m,
		pending:       make(map[*replicaSet]*pendingBatch),
	}
}

// noteQueuedLocked pushes the total and per-class queue gauges after any
// change to d.queued / d.queuedBy. Callers hold d.mu.
func (d *dispatcher) noteQueuedLocked() {
	d.metrics.queueDepth.set(int64(d.queued))
	for c, n := range d.queuedBy {
		d.metrics.queuedBy[c].set(int64(n))
	}
}

// dequeueLocked removes jobs from the queue accounting (their batch is
// running, or they are being failed). Callers hold d.mu.
func (d *dispatcher) dequeueLocked(jobs []*job) {
	d.queued -= len(jobs)
	for _, j := range jobs {
		d.queuedBy[j.class]--
	}
	d.noteQueuedLocked()
}

// startShard runs a shard loop: it executes the shard's batches serially
// until the pool closes the queue at shutdown.
func (d *dispatcher) startShard(sh *shard) {
	d.loopWg.Add(1)
	go func() {
		defer d.loopWg.Done()
		for b := range sh.queue {
			d.runBatch(sh, b)
		}
	}()
}

// estimateWaitLocked predicts how long a newly submitted op for set
// waits before its result exists: the remaining batching window, plus
// the least-loaded shard's queued batches at the smoothed batch service
// time, plus one service time for the op's own batch. Callers hold d.mu.
func (d *dispatcher) estimateWaitLocked(set *replicaSet) time.Duration {
	wait := d.window
	if b, ok := d.pending[set]; ok {
		wait = time.Until(b.due)
		if wait < 0 {
			wait = 0
		}
	}
	svc := time.Duration(d.svcEWMA * float64(time.Second))
	minDepth := int64(math.MaxInt64)
	for _, sh := range set.shards() {
		if !sh.backend.available() {
			continue
		}
		if depth := sh.depth.Load(); depth < minDepth {
			minDepth = depth
		}
	}
	if minDepth != math.MaxInt64 {
		wait += time.Duration(minDepth) * svc
	}
	return wait + svc
}

// submit enqueues one op with its operating point, class and absolute
// deadline (zero = none) and blocks until its batch is dispatched and
// computed, ctx is done, or the server refuses it (class queue share
// full / deadline unmeetable / closing). It returns the op's output, how
// many ops shared the dispatched batch, and which shard ran it.
func (d *dispatcher) submit(ctx context.Context, set *replicaSet, op elsa.BatchOp, thr elsa.Threshold, class Class, deadline time.Time) (*elsa.Output, int, int, error) {
	op.Thr = &thr
	j := &job{ctx: ctx, op: op, class: class, result: make(chan jobResult, 1)}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, 0, 0, ErrClosed
	}
	if !set.available() {
		// The whole fleet for this configuration is ejected: fail fast
		// with a Retry-After covering one probe cycle rather than queueing
		// work nothing can run.
		d.mu.Unlock()
		d.metrics.shedBy[class].add(1)
		return nil, 0, 0, &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}
	}
	if d.queued >= d.weights.queueCap(class, d.maxQueue) {
		est := d.estimateWaitLocked(set)
		d.mu.Unlock()
		d.metrics.shedBy[class].add(1)
		return nil, 0, 0, &shedError{sentinel: ErrQueueFull, retryAfter: est}
	}
	if !deadline.IsZero() {
		if est := d.estimateWaitLocked(set); time.Until(deadline) < est {
			d.mu.Unlock()
			d.metrics.shedBy[class].add(1)
			return nil, 0, 0, &shedError{sentinel: ErrDeadline, retryAfter: est}
		}
	}
	d.queued++
	d.queuedBy[class]++
	d.noteQueuedLocked()
	b, ok := d.pending[set]
	if !ok {
		b = d.newPendingLocked(set)
	}
	b.jobs[class] = append(b.jobs[class], j)
	b.count++
	if b.count >= d.maxBatch {
		d.dispatchLocked(set, b, false)
	}
	d.mu.Unlock()

	select {
	case r := <-j.result:
		return r.out, r.batchSize, r.shard, r.err
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err()
	}
}

// newPendingLocked opens a fresh batching window for set: the timer
// flushes whatever has accumulated when it fires; pointer identity
// guards against flushing a successor batch. Callers hold d.mu.
func (d *dispatcher) newPendingLocked(set *replicaSet) *pendingBatch {
	b := &pendingBatch{due: time.Now().Add(d.window)}
	d.pending[set] = b
	time.AfterFunc(d.window, func() { d.flush(set, b) })
	return b
}

// flush dispatches batch b if it is still the pending batch for set.
func (d *dispatcher) flush(set *replicaSet, b *pendingBatch) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending[set] == b {
		d.dispatchLocked(set, b, false)
	}
}

// dispatchLocked dequeues up to maxBatch jobs from b by priority weight
// and routes them to the least-loaded shard of the replica set. The
// highest class with waiting jobs fills freely; each lower class is
// capped at its weight share of the batch, and capped-out jobs stay
// pending for the next window (counted as priority-preempted) — so
// background work progresses every dispatch but never displaces
// interactive ops. With drain set every job goes at once (shutdown).
// Callers hold d.mu; the send cannot block (see newShard) so holding the
// lock across it is safe. The batchWg.Add pairs with close()'s
// batchWg.Wait so shutdown drains every dispatched batch.
func (d *dispatcher) dispatchLocked(set *replicaSet, b *pendingBatch, drain bool) {
	capacity := d.maxBatch
	if drain {
		capacity = b.count
	}
	take := make([]*job, 0, min(b.count, capacity))
	leading := true
	for c := Class(0); c < NumClasses; c++ {
		jobs := b.jobs[c]
		if len(jobs) == 0 {
			continue
		}
		room := capacity - len(take)
		if room <= 0 {
			break
		}
		n := len(jobs)
		if !drain && !leading {
			n = min(n, d.weights.dispatchCap(c, d.maxBatch))
		}
		n = min(n, room)
		take = append(take, jobs[:n]...)
		b.jobs[c] = jobs[n:]
		b.count -= n
		leading = false
	}

	if b.count > 0 {
		// Deferred jobs open the next window immediately so they are
		// never stranded; the old batch's timer is disarmed by pointer
		// identity.
		nb := d.newPendingLocked(set)
		nb.jobs = b.jobs
		nb.count = b.count
		for c := Class(0); c < NumClasses; c++ {
			if n := len(nb.jobs[c]); n > 0 {
				d.metrics.preempted.with(c.String()).add(int64(n))
			}
		}
	} else {
		delete(d.pending, set)
	}
	if len(take) == 0 {
		return
	}
	sh := set.pickShard()
	if sh == nil {
		// Every shard went unavailable after these ops were admitted.
		// Fail them here rather than parking them on a dead lane; they
		// leave the queue accounting now.
		d.dequeueLocked(take)
		for _, j := range take {
			d.metrics.shedBy[j.class].add(1)
			j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
		}
		return
	}
	d.batchWg.Add(1)
	sh.depth.Add(1)
	sh.stats.depth.add(1)
	sh.queue <- take
}

// runBatch executes one detached batch on its shard: jobs whose context
// already expired are answered immediately, the rest go through the
// shard's backend in one call, each op at its own threshold. Decode
// batches (assembled by the continuous decode loop) take their own path
// — same queue, same depth accounting, different execution.
func (d *dispatcher) runBatch(sh *shard, jobs []*job) {
	if len(jobs) > 0 && jobs[0].dec != nil {
		d.runDecodeBatch(sh, jobs)
		return
	}
	defer d.batchWg.Done()
	sh.depth.Add(-1)
	sh.stats.depth.add(-1)
	live := make([]*job, 0, len(jobs))
	for _, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			j.result <- jobResult{err: err}
			continue
		}
		live = append(live, j)
	}
	d.mu.Lock()
	d.dequeueLocked(jobs)
	d.mu.Unlock()
	if len(live) == 0 {
		return
	}
	d.metrics.batches.add(1)
	d.metrics.batchOps.add(int64(len(live)))
	d.metrics.batchSize.observe(float64(len(live)))
	d.execute(sh, live)
}

// execute runs jobs through sh's backend and delivers results. Ops that
// failed with a retryable worker error (transport fault, worker 5xx or
// overload) and still have reroute budget are handed to reroute; all
// other errors surface to their requesters. Attend ops are idempotent —
// pinned thresholds, no server-side state — so re-executing one on a
// sibling shard after a partial failure yields the bit-identical output
// the first shard would have produced.
func (d *dispatcher) execute(sh *shard, jobs []*job) {
	sh.stats.batches.add(1)
	sh.stats.ops.add(int64(len(jobs)))
	start := time.Now()
	outs, errs := sh.backend.attendBatch(jobs)
	d.observeService(time.Since(start))
	var failed []*job
	for i, j := range jobs {
		err := errs[i]
		if err == nil {
			d.metrics.candFracSum.addFloat(outs[i].CandidateFraction)
			d.metrics.candFracCount.add(1)
			j.result <- jobResult{out: outs[i], batchSize: len(jobs), shard: sh.id}
			continue
		}
		var we *workerError
		if errors.As(err, &we) && we.retryable {
			if j.attempts < d.retries {
				j.attempts++
				failed = append(failed, j)
				continue
			}
			// Reroute budget exhausted on infrastructure failures: the op
			// itself is fine, the fleet is not. Shed with backoff (503)
			// rather than blaming the request (500).
			j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
			continue
		}
		j.result <- jobResult{err: err}
	}
	if len(failed) > 0 {
		d.reroute(sh, failed)
	}
}

// reroute re-executes jobs that failed on one shard against a sibling of
// the same replica set, synchronously on the calling goroutine: routing
// through the sibling's queue could deadlock when queues are full of
// batches waiting on each other, and the jobs have already left the
// dispatcher's queue accounting. Recursion through execute is bounded by
// each job's attempts budget. With no sibling available the ops fail as
// ErrNoWorkers with a probe-interval Retry-After.
func (d *dispatcher) reroute(from *shard, jobs []*job) {
	d.metrics.reroutes.add(int64(len(jobs)))
	next := from.set.pickShardExcluding(from)
	if next == nil {
		for _, j := range jobs {
			j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
		}
		return
	}
	d.execute(next, jobs)
}

// observeService folds one batch's wall time into the smoothed service
// time that deadline shedding estimates queue wait with.
func (d *dispatcher) observeService(dur time.Duration) {
	s := dur.Seconds()
	d.mu.Lock()
	if d.svcEWMA == 0 {
		d.svcEWMA = s
	} else {
		d.svcEWMA = 0.8*d.svcEWMA + 0.2*s
	}
	d.mu.Unlock()
}

// close stops admission, dispatches every still-pending batch
// immediately, drains and joins the continuous decode loops, and waits
// for all in-flight batches to finish. Safe to call more than once. The
// shard loops themselves are shut down by the pool (closeShards) once no
// batch can be enqueued again; waitShards then joins them.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	for set, b := range d.pending {
		d.dispatchLocked(set, b, true)
	}
	d.mu.Unlock()
	// Decode loops drain before batchWg.Wait: their final pump still
	// dispatches through the (open) shard queues and adds to batchWg.
	d.closeDecodeLoops()
	d.batchWg.Wait()
}

// waitShards blocks until every shard loop has exited. Call after
// closeShards.
func (d *dispatcher) waitShards() {
	d.loopWg.Wait()
}
