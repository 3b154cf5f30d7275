package serve

import (
	"context"
	"errors"
	"sync"
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
// goroutine touches it. A job with dec set is one session's decode step;
// a batch never mixes the two kinds, because each kind is harvested from
// its own class queue.
type job struct {
	ctx      context.Context
	op       elsa.BatchOp
	dec      *decodeJob
	class    Class
	attempts int
	result   chan jobResult // buffered: dispatch never blocks on a gone requester
}

// classQueue holds admitted jobs of one kind for one replica set,
// bucketed by priority class: the work queue a lane harvests by weight.
// d.mu guards it.
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
// queued for the next harvest and are counted preempted; ops left only
// because the batch is full are plain queueing and are not. Each class
// slice is compacted in place, keeping its backing array, so the
// steady-state decode cycle never reallocates.
func (q *classQueue) take(dst []*job, maxBatch int, w classWeights, m *Metrics) []*job {
	leading := true
	for c := Class(0); c < NumClasses; c++ {
		jobs := q.jobs[c]
		if len(jobs) == 0 {
			continue
		}
		room := maxBatch - len(dst)
		if room <= 0 {
			break
		}
		n := len(jobs)
		if !leading {
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

// shard is one dispatch lane of a replica set: its backend — an
// in-process engine replica or a remote worker — executes one batch at a
// time on the lane's own goroutine, mirroring one accelerator unit. A
// lane runs at most one batch: busy is set when a handoff gives it one
// and cleared when that batch finishes, both under d.mu, so its queue
// needs room for just that batch and a handoff never blocks. batch is
// the lane's reusable handoff buffer. parked holds, per kind (index 1 =
// decode), ops rerouted to the lane while it was busy; they run as its
// next batch (rerouteLocked, finish). set points back at the owning
// replica set so a finished lane can harvest its next batch and a failed
// batch can reroute to a sibling lane.
type shard struct {
	id      int // lane index within its set; local lanes come first
	stats   shardStats
	set     *replicaSet
	backend shardBackend
	queue   chan []*job
	busy    bool
	batch   []*job
	parked  [2][]*job
}

func newShard(id int, set *replicaSet, backend shardBackend, m *Metrics) *shard {
	return &shard{id: id, stats: m.shard(id), set: set, backend: backend, queue: make(chan []*job, 1)}
}

// dispatcher is the one batch pipeline for both kinds of op. Every op —
// a one-shot attend or a session's decode step — passes one admission
// gate (enqueue), waits in its set's class queue for its kind, is
// harvested by priority weight (classQueue.take) onto a lane and
// executed by one runner (runBatch/execute) with per-op thresholds.
// Pacing is one work-conserving rule for both kinds: a kick hands queued
// ops to an idle eligible lane at once, and a lane that finishes a batch
// harvests the next from the queue (kickLocked, finish), so ops batch
// exactly when every eligible lane is busy. Per kind only lane
// eligibility differs (replicaSet.eligible).
type dispatcher struct {
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
	inflight int             // batches handed to lanes and not yet finished
	drained  sync.Cond       // on mu: signalled while closed as queued work drains
	svcEWMA  float64         // smoothed batch service time, seconds
	loopWg   sync.WaitGroup  // running shard loops
}

func newDispatcher(maxBatch, maxQueue, workers, retries int, noWorkerRetry time.Duration, weights classWeights, m *Metrics) *dispatcher {
	d := &dispatcher{
		maxBatch:      maxBatch,
		maxQueue:      maxQueue,
		workers:       workers,
		retries:       retries,
		noWorkerRetry: noWorkerRetry,
		weights:       weights.normalize(),
		metrics:       m,
	}
	d.drained.L = &d.mu
	return d
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

// dequeueLocked removes jobs from the queue accounting (they were
// harvested, or are being failed). Callers hold d.mu.
func (d *dispatcher) dequeueLocked(jobs []*job) {
	d.queued -= len(jobs)
	for _, j := range jobs {
		d.queuedBy[j.class]--
	}
	d.noteQueuedLocked()
}

// startShard runs a shard loop: it executes each batch a harvest hands
// the lane, then frees the lane to harvest the next, until the pool
// closes the queue at shutdown.
func (d *dispatcher) startShard(sh *shard) {
	d.loopWg.Add(1)
	go func() {
		defer d.loopWg.Done()
		for b := range sh.queue {
			decode := b[0].dec != nil
			d.runBatch(sh, b)
			clear(b) // drop the finished ops' references before the lane idles
			d.finish(sh, decode)
		}
	}()
}

// estimateWaitLocked predicts how long a newly admitted op of the given
// kind waits for set before its result exists, from lane occupancy and
// the queue ahead of it: one service time when an eligible lane is idle
// (the op dispatches at once), else
//
//	(⌊queued ahead / (MaxBatch × eligible lanes)⌋ + 2) × service time
//
// — the in-flight batches finish, whole harvests of the ops ahead run,
// then the op's own batch. Callers hold d.mu.
func (d *dispatcher) estimateWaitLocked(set *replicaSet, decode bool) time.Duration {
	svc := time.Duration(d.svcEWMA * float64(time.Second))
	lanes := 0
	for _, sh := range set.shards() {
		if set.eligible(sh, decode) {
			if !sh.busy {
				return svc
			}
			lanes++
		}
	}
	if lanes == 0 {
		return svc
	}
	ahead := set.queue(decode).count
	return time.Duration(ahead/(d.maxBatch*lanes)+2) * svc
}

// enqueue is the admission gate every op passes, one-shot and decode
// alike. It refuses with ErrClosed while shutting down; with
// ErrNoWorkers when no lane of the set may run the op, rather than
// queueing work nothing can run; with ErrQueueFull when the op's class
// has used its queue share; and with ErrDeadline when the deadline
// (zero = none) cannot cover the estimated wait. An admitted op waits in
// its set's class queue for its kind; the caller owes the set a kick and
// must then receive j.result unconditionally. A step wave enqueues every
// entry before it kicks, so the wave leaves as one batch.
func (d *dispatcher) enqueue(set *replicaSet, j *job, deadline time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	decode := j.dec != nil
	var shed error
	switch {
	case !set.canRun(decode):
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
	set.queue(decode).push(j)
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
	d.kick(set, false)
	select {
	case r := <-j.result:
		return r.out, r.batchSize, r.shard, r.err
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err()
	}
}

// kick hands the set's queued ops of one kind to its idle eligible lanes.
func (d *dispatcher) kick(set *replicaSet, decode bool) {
	d.mu.Lock()
	d.kickLocked(set, decode)
	d.mu.Unlock()
}

// kickLocked is the dispatch rule: while ops of the kind are queued and
// an eligible lane of the set is idle, harvest one batch by weight into
// that lane. Ops no lane will ever take — none is eligible and idle, and
// none holds a batch whose finish would harvest again — fail with
// ErrNoWorkers here rather than wait on dead lanes. Callers hold d.mu.
func (d *dispatcher) kickLocked(set *replicaSet, decode bool) {
	q := set.queue(decode)
	for q.count > 0 {
		sh := set.pickLane(decode, nil)
		if sh == nil || sh.busy {
			if !set.anyBusy() {
				d.shedQueueLocked(q)
			}
			return
		}
		batch := q.take(sh.batch[:0], d.maxBatch, d.weights, d.metrics)
		d.dequeueLocked(batch)
		d.handOffLocked(sh, batch)
	}
}

// handOffLocked gives the idle lane sh its next batch. Callers hold d.mu.
func (d *dispatcher) handOffLocked(sh *shard, batch []*job) {
	sh.batch = batch
	sh.busy = true
	d.inflight++
	sh.queue <- batch
}

// rerouteLocked hands ops that failed on lane from with a retryable error
// to a sibling lane by the dispatch rule, never running them on from
// again or beside another batch on the same lane: an idle eligible
// sibling takes them at once as its batch; when every eligible sibling
// is busy, they park on one and run as its next batch, ahead of its next
// harvest. With no eligible sibling they fail with ErrNoWorkers. Callers
// hold d.mu.
func (d *dispatcher) rerouteLocked(from *shard, jobs []*job) {
	decode := jobs[0].dec != nil
	switch sh := from.set.pickLane(decode, from); {
	case sh == nil:
		for _, j := range jobs {
			j.result <- jobResult{err: d.noWorkers()}
		}
	case sh.busy:
		k := 0
		if decode {
			k = 1
		}
		sh.parked[k] = append(sh.parked[k], jobs...)
	default:
		d.handOffLocked(sh, append(sh.batch[:0], jobs...))
	}
}

// finish frees sh after a batch of the given kind and gives it its next:
// rerouted ops parked on it first (up to MaxBatch of one kind), else a
// harvest from the other kind's queue and then its own, so neither kind
// starves the other on a lane both may use.
func (d *dispatcher) finish(sh *shard, decode bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sh.busy = false
	d.inflight--
	for k, jobs := range sh.parked {
		if len(jobs) == 0 || sh.busy {
			continue
		}
		n := min(len(jobs), d.maxBatch)
		d.handOffLocked(sh, append(sh.batch[:0], jobs[:n]...))
		rest := copy(jobs, jobs[n:])
		clear(jobs[rest:])
		sh.parked[k] = jobs[:rest]
	}
	d.kickLocked(sh.set, !decode)
	d.kickLocked(sh.set, decode)
	if d.closed {
		d.drained.Broadcast()
	}
}

// shedQueueLocked fails every op q holds with ErrNoWorkers. Callers hold
// d.mu.
func (d *dispatcher) shedQueueLocked(q *classQueue) {
	for c, jobs := range q.jobs {
		d.dequeueLocked(jobs)
		for _, j := range jobs {
			d.metrics.shedBy[j.class].add(1)
			j.result <- jobResult{err: d.noWorkers()}
		}
		clear(jobs)
		q.jobs[c] = jobs[:0]
	}
	q.count = 0
	if d.closed {
		d.drained.Broadcast()
	}
}

// runBatch executes one handed-off batch on its shard: jobs whose
// context already expired are answered at once, the rest go through
// execute. The kind decides only the metric family the batch feeds; a
// rerouted batch (its ops have attempts) was counted when first run.
func (d *dispatcher) runBatch(sh *shard, jobs []*job) {
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
	switch {
	case live[0].attempts > 0:
	case live[0].dec != nil:
		d.metrics.decodeBatches.add(1)
		d.metrics.decodeOps.add(n)
		d.metrics.decodeBatchSize.observe(float64(n))
		if n > 1 {
			// Each would have been a serialized dispatch without batching.
			d.metrics.decodeCoalesced.add(n)
		}
	default:
		d.metrics.batches.add(1)
		d.metrics.batchOps.add(n)
		d.metrics.batchSize.observe(float64(n))
	}
	d.execute(sh, live)
}

// execute runs jobs through sh's backend — attendBatch for one-shot ops,
// decodeBatch for decode steps — and delivers results. Ops that failed
// with a retryable worker error (transport fault, worker 5xx or
// overload) and still have reroute budget go to a sibling lane of the
// same set (rerouteLocked); with no sibling left they fail as
// ErrNoWorkers. Attend ops are idempotent (pinned thresholds, no
// server-side state), so a sibling yields the bit-identical output the
// first lane would have. A retryable decode failure can only come off a
// remote lane, which only float-mode sets use (see replicaSet.eligible),
// so its sibling is safe too.
func (d *dispatcher) execute(sh *shard, jobs []*job) {
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
	if len(failed) > 0 {
		d.metrics.reroutes.add(int64(len(failed)))
		d.mu.Lock()
		d.rerouteLocked(sh, failed)
		d.mu.Unlock()
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

// close stops admission and waits until every admitted op has been
// harvested and every handed-off batch has finished: lanes keep
// harvesting by the usual rule, so queued ops drain without a special
// path. Safe to call more than once. The shard loops themselves are shut
// down by the pool (closeShards) once no batch can be handed off again;
// waitShards then joins them.
func (d *dispatcher) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for d.queued > 0 || d.inflight > 0 {
		d.drained.Wait()
	}
}

// waitShards blocks until every shard loop has exited. Call after
// closeShards.
func (d *dispatcher) waitShards() {
	d.loopWg.Wait()
}
