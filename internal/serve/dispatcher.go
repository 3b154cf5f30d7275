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
// riding its set's continuous decode loop instead of a windowed pending
// batch; a batch never mixes the two kinds, because each kind is
// harvested from its own class queue.
type job struct {
	ctx      context.Context
	op       elsa.BatchOp
	dec      *decodeJob
	class    Class
	attempts int
	result   chan jobResult // buffered: dispatch never blocks on a gone requester
}

// classQueue holds admitted jobs bucketed by priority class: the work
// queue one dispatch harvests by weight. A one-shot pending batch and a
// set's decode loop each own one; d.mu guards both.
type classQueue struct {
	jobs  [NumClasses][]*job
	count int
}

func (q *classQueue) push(j *job) {
	q.jobs[j.class] = append(q.jobs[j.class], j)
	q.count++
}

// take moves up to maxBatch jobs into the empty dst by priority weight.
// The highest class with waiting jobs fills freely; each lower class is
// capped at its weight share of the batch. The ops a cap holds back stay
// queued for the next dispatch and are counted preempted; ops left only
// because the batch is full are plain queueing and are not. drain takes
// everything (shutdown). Each class slice is compacted in place, keeping
// its backing array, so the steady-state decode cycle never reallocates.
func (q *classQueue) take(dst []*job, maxBatch int, w classWeights, drain bool, m *Metrics) []*job {
	capacity := maxBatch
	if drain {
		capacity = q.count
	}
	leading := true
	for c := Class(0); c < NumClasses; c++ {
		jobs := q.jobs[c]
		if len(jobs) == 0 {
			continue
		}
		room := capacity - len(dst)
		if room <= 0 {
			break
		}
		n := len(jobs)
		if !drain && !leading {
			if limit := w.dispatchCap(c, maxBatch); n > limit {
				m.preempted.with(c.String()).add(int64(n - limit))
				n = limit
			}
		}
		n = min(n, room)
		dst = append(dst, jobs[:n]...)
		copy(jobs, jobs[n:])
		clear(jobs[len(jobs)-n:])
		q.jobs[c] = jobs[:len(jobs)-n]
		q.count -= n
		leading = false
	}
	return dst
}

// pendingBatch accumulates one-shot jobs for one replica set until the
// window elapses or the batch fills.
type pendingBatch struct {
	classQueue
	due time.Time // when this batch's window timer fires
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

// dispatcher is the one batch pipeline for both kinds of op. Every op —
// a one-shot attend or a session's decode step — passes one admission
// gate (enqueue), waits in a class queue, is harvested by priority weight
// (classQueue.take), routed to a shard of its replica set and executed
// by one runner (runBatch/execute) with per-op thresholds. Only two
// things differ by kind. Pacing: one-shot ops coalesce in a pending
// batch that flushes when its window elapses or it fills, while each
// set's decode loop keeps one batch in flight and harvests whatever
// queued meanwhile (decode.go). Lane choice: pickShard vs
// pickShardDecode.
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

	decStop     chan struct{} // closed once at shutdown: every decode loop drains and exits
	decStopOnce sync.Once
	decWg       sync.WaitGroup // running decode loops
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
		decStop:       make(chan struct{}),
	}
}

// noWorkers is the shed an op gets when no lane can run it: 503 with a
// Retry-After of one probe cycle, so clients back off until a probe
// re-admits a worker.
func (d *dispatcher) noWorkers() error {
	return &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}
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

// estimateWaitLocked predicts how long a newly admitted op for set waits
// before its result exists: for a one-shot op the remaining batching
// window (the full window when none is open), then for both kinds the
// least-loaded shard's queued batches at the smoothed batch service
// time, plus one service time for the op's own batch. A decode step
// waits no window: an idle decode loop dispatches it at once. Callers
// hold d.mu.
func (d *dispatcher) estimateWaitLocked(set *replicaSet, decode bool) time.Duration {
	var wait time.Duration
	if !decode {
		wait = d.window
		if b, ok := d.pending[set]; ok {
			wait = max(time.Until(b.due), 0)
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

// enqueue is the admission gate every op passes, one-shot and decode
// alike. It refuses with ErrClosed while shutting down; with
// ErrNoWorkers when no lane of the set is available, rather than
// queueing work nothing can run; with ErrQueueFull when the op's class
// has used its queue share; and with ErrDeadline when the deadline
// (zero = none) cannot cover the estimated wait. An admitted one-shot op
// joins the set's pending batch, which dispatches once full. An admitted
// decode step joins the set's decode loop without waking it: the caller
// owes the loop a wakeup and must then receive j.result unconditionally.
func (d *dispatcher) enqueue(set *replicaSet, j *job, deadline time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	decode := j.dec != nil
	var shed error
	switch {
	case !set.available():
		shed = d.noWorkers()
	case d.queued >= d.weights.queueCap(j.class, d.maxQueue):
		shed = &shedError{sentinel: ErrQueueFull, retryAfter: d.estimateWaitLocked(set, decode)}
	case !deadline.IsZero():
		if est := d.estimateWaitLocked(set, decode); time.Until(deadline) < est {
			shed = &shedError{sentinel: ErrDeadline, retryAfter: est}
		}
	}
	if shed != nil {
		d.metrics.shedBy[j.class].add(1)
		return shed
	}
	d.queued++
	d.queuedBy[j.class]++
	d.noteQueuedLocked()
	if decode {
		set.dec.queue.push(j)
		return nil
	}
	b, ok := d.pending[set]
	if !ok {
		b = d.newPendingLocked(set)
	}
	b.push(j)
	if b.count >= d.maxBatch {
		d.dispatchLocked(set, b, false)
	}
	return nil
}

// submit runs one one-shot op with its operating point, class and
// absolute deadline (zero = none) and blocks until its batch is
// dispatched and computed, ctx is done, or the gate refuses it. It
// returns the op's output, how many ops shared the dispatched batch, and
// which shard ran it.
func (d *dispatcher) submit(ctx context.Context, set *replicaSet, op elsa.BatchOp, thr elsa.Threshold, class Class, deadline time.Time) (*elsa.Output, int, int, error) {
	op.Thr = &thr
	j := &job{ctx: ctx, op: op, class: class, result: make(chan jobResult, 1)}
	if err := d.enqueue(set, j, deadline); err != nil {
		return nil, 0, 0, err
	}
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

// dispatchLocked harvests one one-shot batch from b by weight and routes
// it to the least-loaded shard of the set. Jobs b still holds open the
// next window at once, so they are never stranded; with drain set every
// job goes now (shutdown). Callers hold d.mu.
func (d *dispatcher) dispatchLocked(set *replicaSet, b *pendingBatch, drain bool) {
	n := b.count
	if !drain {
		n = min(n, d.maxBatch)
	}
	take := b.take(make([]*job, 0, n), d.maxBatch, d.weights, drain, d.metrics)
	if b.count > 0 {
		// The old batch's timer is disarmed by pointer identity.
		d.newPendingLocked(set).classQueue = b.classQueue
	} else {
		delete(d.pending, set)
	}
	if len(take) > 0 {
		d.routeLocked(set.pickShard(), take)
	}
}

// routeLocked hands a harvested batch to sh's queue. With no available
// lane (sh nil) the batch's ops fail with ErrNoWorkers here, leaving the
// queue accounting now, rather than parking on a dead lane. The send
// cannot block (see newShard), so holding d.mu across it is safe; the
// batchWg.Add pairs with close's batchWg.Wait so shutdown drains every
// dispatched batch. Reports whether the batch was queued.
func (d *dispatcher) routeLocked(sh *shard, batch []*job) bool {
	if sh == nil {
		d.dequeueLocked(batch)
		for _, j := range batch {
			d.metrics.shedBy[j.class].add(1)
			j.result <- jobResult{err: d.noWorkers()}
		}
		return false
	}
	d.batchWg.Add(1)
	sh.depth.Add(1)
	sh.stats.depth.add(1)
	sh.queue <- batch
	return true
}

// runBatch executes one detached batch on its shard: jobs whose context
// already expired are answered at once, the rest go through execute. The
// kind decides only the metric family the batch feeds, and for a decode
// batch the owning loop's release once the slice is no longer used.
func (d *dispatcher) runBatch(sh *shard, jobs []*job) {
	defer d.batchWg.Done()
	decode := jobs[0].dec != nil
	if decode {
		defer sh.set.dec.signalDone()
	}
	sh.depth.Add(-1)
	sh.stats.depth.add(-1)
	// Queue accounting goes first: compacting live in place below
	// overwrites jobs' tail entries, so per-class counts must be taken
	// while the slice still holds each job exactly once.
	d.mu.Lock()
	d.dequeueLocked(jobs)
	d.mu.Unlock()
	live := jobs[:0]
	for _, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			j.result <- jobResult{err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	n := int64(len(live))
	if decode {
		d.metrics.decodeBatches.add(1)
		d.metrics.decodeOps.add(n)
		d.metrics.decodeBatchSize.observe(float64(n))
		if n > 1 {
			// Each would have been a serialized dispatch without the loop.
			d.metrics.decodeCoalesced.add(n)
		}
	} else {
		d.metrics.batches.add(1)
		d.metrics.batchOps.add(n)
		d.metrics.batchSize.observe(float64(n))
	}
	d.execute(sh, live)
}

// execute runs jobs through sh's backend — attendBatch for one-shot ops,
// decodeBatch for decode steps — and delivers results. Ops that failed
// with a retryable worker error (transport fault, worker 5xx or
// overload) and still have reroute budget re-execute on a sibling lane
// of the same set, synchronously on this goroutine: routing through the
// sibling's queue could deadlock when queues are full of batches waiting
// on each other, and the jobs have already left the queue accounting.
// With no sibling left they fail as ErrNoWorkers. Attend ops are
// idempotent (pinned thresholds, no server-side state), so a sibling
// yields the bit-identical output the first lane would have. A retryable
// decode failure can only come off a remote lane, which only float-mode
// sets use (see pickShardDecode), so its sibling is safe too.
func (d *dispatcher) execute(sh *shard, jobs []*job) {
	for {
		sh.stats.batches.add(1)
		sh.stats.ops.add(int64(len(jobs)))
		start := time.Now()
		var outs []*elsa.Output
		var errs []error
		if jobs[0].dec != nil {
			errs = sh.backend.decodeBatch(jobs)
		} else {
			outs, errs = sh.backend.attendBatch(jobs)
		}
		d.observeService(time.Since(start))
		var failed []*job
		for i, j := range jobs {
			err := errs[i]
			if err == nil {
				r := jobResult{batchSize: len(jobs), shard: sh.id}
				if outs != nil {
					r.out = outs[i]
					d.metrics.candFracSum.addFloat(r.out.CandidateFraction)
					d.metrics.candFracCount.add(1)
				}
				j.result <- r
				continue
			}
			var we *workerError
			switch {
			case !errors.As(err, &we) || !we.retryable:
				j.result <- jobResult{err: err}
			case j.attempts < d.retries:
				j.attempts++
				failed = append(failed, j)
			default:
				// Reroute budget exhausted on infrastructure failures: the
				// op itself is fine, the fleet is not. Shed with backoff
				// (503) rather than blaming the request (500).
				j.result <- jobResult{err: d.noWorkers()}
			}
		}
		if len(failed) == 0 {
			return
		}
		d.metrics.reroutes.add(int64(len(failed)))
		if sh = sh.set.pickShardExcluding(sh); sh == nil {
			for _, j := range failed {
				j.result <- jobResult{err: d.noWorkers()}
			}
			return
		}
		jobs = failed
	}
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

// close stops admission, dispatches every still-pending one-shot batch
// immediately, drains and joins the decode loops, and waits for all
// in-flight batches to finish. Safe to call more than once. The shard
// loops themselves are shut down by the pool (closeShards) once no batch
// can be enqueued again; waitShards then joins them.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	for set, b := range d.pending {
		d.dispatchLocked(set, b, true)
	}
	d.mu.Unlock()
	// Decode loops drain before batchWg.Wait: their final pump still
	// dispatches through the (open) shard queues and adds to batchWg.
	d.stopDecodeLoops()
	d.batchWg.Wait()
}

// waitShards blocks until every shard loop has exited. Call after
// closeShards.
func (d *dispatcher) waitShards() {
	d.loopWg.Wait()
}
