package serve

import (
	"runtime"

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

// decodeState is one replica set's continuous decode loop. Admitted
// session queries wait in its class queue while the loop has a batch
// executing, and each loop iteration harvests everything ready — up to
// maxBatch, weighted by class — as one dispatch. One batch in flight per
// set is the pacing rule that makes batching continuous: an idle loop
// dispatches a lone query immediately (no window timer), and under load
// the previous batch's service time is exactly the window in which the
// next batch coalesces.
type decodeState struct {
	queue classQueue    // guarded by dispatcher.mu
	wake  chan struct{} // cap 1: submission signal, coalescing
	done  chan struct{} // cap 1: the in-flight batch finished
	take  []*job        // reusable harvest buffer, owned by the loop
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

// startDecodeLoop attaches a continuous decode loop to set and starts
// it. Called by the pool under its lock when the set's shards are wired.
// After shutdown the loop is attached but never started: the gate
// admits nothing once closed is set.
func (d *dispatcher) startDecodeLoop(set *replicaSet) {
	set.dec = &decodeState{
		wake: make(chan struct{}, 1),
		done: make(chan struct{}, 1),
		take: make([]*job, 0, d.maxBatch),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.decWg.Add(1)
	go d.decodeLoop(set)
}

// decodeLoop services one replica set's decode traffic until shutdown.
func (d *dispatcher) decodeLoop(set *replicaSet) {
	defer d.decWg.Done()
	for {
		select {
		case <-set.dec.wake:
			d.pumpDecode(set, false)
		case <-d.decStop:
			// closed was set under d.mu before decStop closed, so no job
			// can arrive after this drain takes the queue empty.
			d.pumpDecode(set, true)
			return
		}
	}
}

// pumpDecode dispatches ready decode batches until none remain. Each
// dispatch rides a shard queue like a one-shot batch (shared depth
// accounting, shared shard loop and runner) and the loop blocks on its
// completion — the one-in-flight pacing under which the next batch
// coalesces.
func (d *dispatcher) pumpDecode(set *replicaSet, drain bool) {
	ds := set.dec
	for {
		// Yield once before harvesting: a submission wakes this loop with
		// a direct handoff, so on a single-P runtime the loop would
		// otherwise always run ahead of every other ready session and
		// harvest batches of one. One scheduler pass lets already-runnable
		// submitters enqueue first — the no-timer analogue of holding the
		// window open, costing a lone query ~100ns instead of a deadline.
		runtime.Gosched()
		d.mu.Lock()
		ds.take = ds.queue.take(ds.take[:0], d.maxBatch, d.weights, drain, d.metrics)
		n := len(ds.take)
		queued := n > 0 && d.routeLocked(set.pickShardDecode(), ds.take)
		d.mu.Unlock()
		if n == 0 {
			return
		}
		if queued {
			<-ds.done
		}
	}
}

// stopDecodeLoops ends every decode loop after its final drain. close
// calls it after setting closed, with d.mu released.
func (d *dispatcher) stopDecodeLoops() {
	d.decStopOnce.Do(func() { close(d.decStop) })
	d.decWg.Wait()
}
