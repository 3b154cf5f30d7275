package serve

import "elsa"

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

// init wires the embedded job's back-pointer and result channel
// once, at session creation.
func (dec *decodeJob) init() {
	dec.j.dec = dec
	dec.j.result = make(chan jobResult, 1)
}
