package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"elsa"
)

// decodeJob is one session's in-flight decode step. The session owns
// exactly one — the submit/complete handoff guarantees at most one query
// in flight per session — so the struct, its embedded dispatcher job and
// the job's result channel are all reused across the session's queries
// and the steady-state decode cycle allocates nothing per token.
type decodeJob struct {
	stream *elsa.Stream
	q      []float32
	// thr is the query's resolved operating point (session threshold or
	// the request's override), pinned so mixed-session batches carry every
	// op's threshold explicitly; p rides along for the wire.
	thr elsa.Threshold
	p   float64
	// backend is the query's effective exact backend ("" = filter
	// pipeline), so mixed batches route each session's steps correctly.
	backend string
	// out is the recycled context buffer going in and the (possibly
	// grown) result coming out; stats the query's work counters.
	out   []float32
	stats elsa.StreamStats
	// j is the dispatcher job wrapping this step, reused with it.
	j job
}

// newDecodeJob wires the embedded job's back-pointer and result channel
// once, at session creation.
func (dec *decodeJob) init() {
	dec.j.dec = dec
	dec.j.result = make(chan jobResult, 1)
}

// decodeState is one replica set's continuous decode loop: submitted
// session queries accumulate here (bucketed by class, like a pending
// batch) while the loop has a batch executing, and each loop iteration
// takes everything ready — up to maxBatch, weighted by class — as one
// dispatch. One batch in flight per set is the pacing rule that makes
// batching continuous: an idle loop dispatches a lone query immediately
// (no window timer, so single-session decode latency stays at the
// serialized path's), and under load the previous batch's service time
// is exactly the window in which the next batch coalesces.
type decodeState struct {
	set *replicaSet

	mu     sync.Mutex
	jobs   [NumClasses][]*job
	count  int
	closed bool

	wake  chan struct{} // cap 1: submission signal, coalescing
	done  chan struct{} // cap 1: runDecodeBatch completion signal
	stopc chan struct{} // closed by dispatcher.close
	take  []*job        // reusable dispatch buffer, owned by the loop
}

// wakeup nudges the decode loop; a pending nudge is enough.
func (ds *decodeState) wakeup() {
	select {
	case ds.wake <- struct{}{}:
	default:
	}
}

// signalDone tells the loop its in-flight batch finished.
func (ds *decodeState) signalDone() {
	select {
	case ds.done <- struct{}{}:
	default:
	}
}

// takeBatch removes up to maxBatch ready jobs under the same weighted
// rules as dispatchLocked: the highest waiting class fills freely, each
// lower class is capped at its weight share (capped-out jobs are counted
// preempted and stay for the immediately following iteration — a decode
// "window" is one batch execution, not a timer). drain takes everything.
// The returned slice is ds.take, reused once the loop observes done.
func (ds *decodeState) takeBatch(maxBatch int, weights classWeights, drain bool, m *Metrics) []*job {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.count == 0 {
		return nil
	}
	capacity := maxBatch
	if drain {
		capacity = ds.count
	}
	take := ds.take[:0]
	leading := true
	for c := Class(0); c < NumClasses; c++ {
		jobs := ds.jobs[c]
		if len(jobs) == 0 {
			continue
		}
		room := capacity - len(take)
		if room <= 0 {
			break
		}
		n := len(jobs)
		if !drain && !leading {
			if limit := weights.dispatchCap(c, maxBatch); n > limit {
				m.preempted.with(c.String()).add(int64(n - limit))
				n = limit
			}
		}
		n = min(n, room)
		take = append(take, jobs[:n]...)
		// Compact in place so the class queue keeps its backing array:
		// the steady-state cycle must not reallocate per token.
		copy(jobs, jobs[n:])
		for i := len(jobs) - n; i < len(jobs); i++ {
			jobs[i] = nil
		}
		ds.jobs[c] = jobs[:len(jobs)-n]
		leading = false
	}
	ds.count -= len(take)
	ds.take = take
	return take
}

// startDecodeLoop attaches a continuous decode loop to set and starts
// it. Called by the pool under its lock when the set's shards are wired.
func (d *dispatcher) startDecodeLoop(set *replicaSet) {
	ds := &decodeState{
		set:   set,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		take:  make([]*job, 0, d.maxBatch),
	}
	set.dec = ds
	d.mu.Lock()
	if d.closed {
		// Shutdown already ran; refuse submissions instead of leaking a
		// loop nothing will stop.
		ds.closed = true
		d.mu.Unlock()
		return
	}
	d.decStates = append(d.decStates, ds)
	d.mu.Unlock()
	d.decWg.Add(1)
	go d.decodeLoop(ds)
}

// decodeLoop services one replica set's decode traffic until close.
func (d *dispatcher) decodeLoop(ds *decodeState) {
	defer d.decWg.Done()
	for {
		select {
		case <-ds.wake:
			d.pumpDecode(ds, false)
		case <-ds.stopc:
			// closed was set before stopc closed, so no job can arrive
			// after this drain takes the queue empty.
			d.pumpDecode(ds, true)
			return
		}
	}
}

// pumpDecode dispatches ready decode batches until none remain. Each
// dispatch rides a shard queue like a one-shot batch (shared depth
// accounting, shared shard loop) and the loop blocks on its completion —
// the one-in-flight pacing under which the next batch coalesces.
func (d *dispatcher) pumpDecode(ds *decodeState, drain bool) {
	for {
		// Yield once before harvesting: a submission wakes this loop with
		// a direct handoff, so on a single-P runtime the loop would
		// otherwise always run ahead of every other ready session and
		// harvest batches of one. One scheduler pass lets already-runnable
		// submitters enqueue first — the no-timer analogue of holding the
		// window open, costing a lone query ~100ns instead of a deadline.
		runtime.Gosched()
		take := ds.takeBatch(d.maxBatch, d.weights, drain, d.metrics)
		if len(take) == 0 {
			return
		}
		sh := ds.set.pickShardDecode()
		if sh == nil {
			d.mu.Lock()
			d.dequeueLocked(take)
			d.mu.Unlock()
			for _, j := range take {
				d.metrics.shedBy[j.class].add(1)
				j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
			}
			continue
		}
		d.batchWg.Add(1)
		sh.depth.Add(1)
		sh.stats.depth.add(1)
		sh.queue <- take
		<-ds.done
	}
}

// submitDecode enqueues one session decode step on the set's continuous
// decode loop and blocks until the loop's dispatch completes it. The
// admission gates — closed, set availability, per-class queue share,
// deadline shedding — are the same ones one-shot submit passes, so
// decode traffic obeys the same QoS envelope. Unlike submit, the wait is
// unconditional: delivery is guaranteed on every dispatcher path (expired
// contexts are answered by runDecodeBatch, shutdown by the loop's final
// drain), and returning early on ctx.Done would let the loop write into
// dec after the session's gate moved on.
func (d *dispatcher) submitDecode(ctx context.Context, set *replicaSet, dec *decodeJob, class Class, deadline time.Time) (int, error) {
	ds := set.dec
	if ds == nil {
		// No loop attached (a set built outside the pool, e.g. in tests):
		// run the step inline, the serialized path.
		dec.out, dec.stats, dec.j.ctx = nil, elsa.StreamStats{}, nil
		out, stats, err := dec.stream.QueryOverrides(dec.out, dec.q, elsa.Overrides{Thr: &dec.thr, Backend: dec.backend}, elsa.Exact())
		dec.out, dec.stats = out, stats
		return 1, err
	}
	if err := d.enqueueDecode(ctx, ds, set, dec, class, deadline); err != nil {
		return 0, err
	}
	ds.wakeup()
	r := <-dec.j.result
	return r.batchSize, r.err
}

// enqueueDecode runs the decode admission gates and queues dec on the
// set's loop without waking it — the building block submitDecode and the
// registry's cross-session step wave share. On success the caller owes
// the loop a wakeup and must then receive dec.j.result unconditionally
// (see submitDecode for why the wait cannot be abandoned). A wave caller
// enqueues every entry before its single wakeup, so the whole wave is
// visible to one harvest instead of trickling in one scheduler pass at
// a time.
func (d *dispatcher) enqueueDecode(ctx context.Context, ds *decodeState, set *replicaSet, dec *decodeJob, class Class, deadline time.Time) error {
	j := &dec.j
	j.ctx = ctx
	j.class = class
	j.attempts = 0

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if !set.available() {
		d.mu.Unlock()
		d.metrics.shedBy[class].add(1)
		return &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}
	}
	if d.queued >= d.weights.queueCap(class, d.maxQueue) {
		est := d.estimateWaitLocked(set)
		d.mu.Unlock()
		d.metrics.shedBy[class].add(1)
		return &shedError{sentinel: ErrQueueFull, retryAfter: est}
	}
	if !deadline.IsZero() {
		if est := d.estimateWaitLocked(set); time.Until(deadline) < est {
			d.mu.Unlock()
			d.metrics.shedBy[class].add(1)
			return &shedError{sentinel: ErrDeadline, retryAfter: est}
		}
	}
	d.queued++
	d.queuedBy[class]++
	d.noteQueuedLocked()
	d.mu.Unlock()

	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		d.mu.Lock()
		d.queued--
		d.queuedBy[class]--
		d.noteQueuedLocked()
		d.mu.Unlock()
		return ErrClosed
	}
	ds.jobs[class] = append(ds.jobs[class], j)
	ds.count++
	ds.mu.Unlock()
	return nil
}

// runDecodeBatch executes one decode batch on its shard: expired jobs
// are answered immediately, the rest run through the backend's
// decodeBatch in one call, and the owning loop is released for its next
// iteration only after the batch's slice is no longer referenced.
func (d *dispatcher) runDecodeBatch(sh *shard, jobs []*job) {
	defer d.batchWg.Done()
	defer sh.set.dec.signalDone()
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
	// A batch of more than one query coalesced them: each would have been
	// a serialized dispatch without the loop.
	n := int64(len(live))
	d.metrics.decodeBatches.add(1)
	d.metrics.decodeOps.add(n)
	d.metrics.decodeBatchSize.observe(float64(n))
	if n > 1 {
		d.metrics.decodeCoalesced.add(n)
	}
	d.executeDecode(sh, live)
}

// executeDecode runs decode jobs through sh's backend and delivers
// results, rerouting retryable worker failures within each job's budget
// — the decode analogue of execute. A failed retryable job can only have
// come off a remote lane (the local backend's errors are the op's own),
// so rerouting through pickShardExcluding is safe: quantized batches
// never reach remote lanes in the first place (see pickShardDecode).
func (d *dispatcher) executeDecode(sh *shard, jobs []*job) {
	sh.stats.batches.add(1)
	sh.stats.ops.add(int64(len(jobs)))
	start := time.Now()
	errs := sh.backend.decodeBatch(jobs)
	d.observeService(time.Since(start))
	var failed []*job
	for i, j := range jobs {
		err := errs[i]
		if err == nil {
			j.result <- jobResult{batchSize: len(jobs), shard: sh.id}
			continue
		}
		var we *workerError
		if errors.As(err, &we) && we.retryable {
			if j.attempts < d.retries {
				j.attempts++
				failed = append(failed, j)
				continue
			}
			j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
			continue
		}
		j.result <- jobResult{err: err}
	}
	if len(failed) > 0 {
		d.metrics.reroutes.add(int64(len(failed)))
		next := sh.set.pickShardExcluding(sh)
		if next == nil {
			for _, j := range failed {
				j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
			}
			return
		}
		d.executeDecode(next, failed)
	}
}

// closeDecodeLoops stops every decode loop: closed is set under each
// state's lock first, so any submission that already passed the
// dispatcher's admission either lands before the final drain takes it or
// is refused. Called by close with d.mu released.
func (d *dispatcher) closeDecodeLoops() {
	d.mu.Lock()
	states := append([]*decodeState(nil), d.decStates...)
	d.mu.Unlock()
	for _, ds := range states {
		ds.mu.Lock()
		if !ds.closed {
			ds.closed = true
			close(ds.stopc)
		}
		ds.mu.Unlock()
	}
	d.decWg.Wait()
}
