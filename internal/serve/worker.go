package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"elsa"
	"elsa/serve/client"
)

// worker is one remote elsaserve process in the fleet. The frontend
// dispatcher routes micro-batch ops to it over HTTP through serve/client,
// probes its /v1/healthz on a jittered interval, and ejects it after
// failLimit consecutive failures (probe or dispatch). A later successful
// probe re-admits it. The in-flight semaphore caps concurrent ops on the
// wire to one worker, the cross-host analogue of a shard's bounded queue.
type worker struct {
	addr      string
	cli       *client.Client
	inflight  chan struct{}
	failLimit int
	stats     workerStats

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive probe/dispatch failures
	// draining and gone mirror the membership table's view: a draining
	// worker finishes its pinned sessions but takes no new routing; a gone
	// worker (expired heartbeats) takes nothing until it rejoins.
	draining bool
	gone     bool
}

func newWorker(addr string, inflight, failLimit int, m *Metrics) *worker {
	w := &worker{
		addr:      addr,
		cli:       client.New(addr),
		inflight:  make(chan struct{}, inflight),
		failLimit: failLimit,
		stats:     m.worker(addr),
		healthy:   true, // assume up until proven otherwise
	}
	w.stats.healthy.set(1)
	return w
}

// isHealthy reports whether the worker's health probes are passing,
// irrespective of membership state.
func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// routable reports whether new work — one-shot micro-batches and session
// placements — may land on this worker: probes passing and the member
// neither draining nor gone. Traffic for already-pinned sessions bypasses
// this check, which is exactly what lets a draining worker finish them.
func (w *worker) routable() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy && !w.draining && !w.gone
}

// setDraining flips the worker's draining flag (membership transitions
// own this; the probe loop never touches it).
func (w *worker) setDraining(d bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.draining = d
}

// setGone marks the worker departed or — on a rejoin — back. Rejoining
// also clears draining and the failure streak: the restarted process is
// probed fresh, not blamed for its predecessor's faults.
func (w *worker) setGone(g bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gone = g
	if !g {
		w.draining = false
		w.fails = 0
	}
}

// fault records one failed probe or dispatch; failLimit consecutive
// faults eject the worker from routing until a probe succeeds again.
func (w *worker) fault() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	if w.healthy && w.fails >= w.failLimit {
		w.healthy = false
		w.stats.ejections.add(1)
		w.stats.healthy.set(0)
	}
}

// recover records one successful probe or dispatch, resetting the
// consecutive-failure count and re-admitting an ejected worker.
func (w *worker) recover() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails = 0
	if !w.healthy {
		w.healthy = true
		w.stats.readmissions.add(1)
		w.stats.healthy.set(1)
	}
}

// workerSet is the frontend's remote fleet: the workers plus the probe
// loops that keep their health state current. The set is dynamic — the
// static -workers list merely seeds it, and cluster joins grow it at
// runtime — so readers take snapshots instead of iterating a shared
// slice.
type workerSet struct {
	probe     time.Duration
	inflight  int
	failLimit int
	metrics   *Metrics
	// onProbe, when set (before start), observes every probe outcome —
	// the hook membership activation rides on. h is nil when err != nil.
	onProbe func(w *worker, h *client.Health, err error)

	mu      sync.Mutex
	byAddr  map[string]*worker
	workers []*worker // insertion order, for deterministic iteration
	started bool
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// newWorkerSet builds the fleet from base addresses ("host:port" or full
// URLs). Empty addrs yield an empty set — a purely local server until
// something joins.
func newWorkerSet(addrs []string, probe time.Duration, inflight, failLimit int, m *Metrics) *workerSet {
	f := &workerSet{
		probe:     probe,
		inflight:  inflight,
		failLimit: failLimit,
		metrics:   m,
		byAddr:    make(map[string]*worker),
		stop:      make(chan struct{}),
	}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		addr := normalizeWorkerAddr(a)
		if _, ok := f.byAddr[addr]; ok {
			continue
		}
		w := newWorker(addr, inflight, failLimit, m)
		f.byAddr[addr] = w
		f.workers = append(f.workers, w)
	}
	return f
}

// normalizeWorkerAddr accepts "host:port" shorthand for http URLs.
func normalizeWorkerAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr
}

// start launches one health-probe loop per seeded worker.
func (f *workerSet) start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started = true
	for _, w := range f.workers {
		f.wg.Add(1)
		go f.probeLoop(w)
	}
}

// add admits a worker at addr (already normalized) into the fleet at
// runtime, starting its probe loop. An existing worker is returned as-is
// with its gone flag cleared — a rejoin revives the same lane instead of
// leaking a new one. Returns created=true when a new worker (and dispatch
// shard) must be wired up. Nil after close.
func (f *workerSet) add(addr string) (w *worker, created bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false
	}
	if w, ok := f.byAddr[addr]; ok {
		w.setGone(false)
		return w, false
	}
	w = newWorker(addr, f.inflight, f.failLimit, f.metrics)
	f.byAddr[addr] = w
	f.workers = append(f.workers, w)
	if f.started {
		f.wg.Add(1)
		go f.probeLoop(w)
	}
	return w, true
}

// get returns the worker at addr (already normalized), or nil.
func (f *workerSet) get(addr string) *worker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byAddr[addr]
}

// snapshot returns the current workers in insertion order.
func (f *workerSet) snapshot() []*worker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*worker(nil), f.workers...)
}

// size reports how many workers the fleet has ever admitted (gone
// members included — their lanes persist for rejoin).
func (f *workerSet) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.workers)
}

// probeLoop GETs the worker's /v1/healthz, first immediately — a freshly
// joined worker should activate within one round-trip, not one interval —
// then on a ±20% jittered interval so a large fleet sharing one
// configured period doesn't thundering-herd the frontend. Failures feed
// the same consecutive-failure counter as dispatch errors; a success
// resets it and re-admits an ejected worker.
func (f *workerSet) probeLoop(w *worker) {
	defer f.wg.Done()
	for {
		f.probeOnce(w)
		t := time.NewTimer(jitter(f.probe))
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// probeOnce runs one health probe against w and feeds the outcome into
// its health state and the onProbe hook.
func (f *workerSet) probeOnce(w *worker) {
	// The probe deadline is decoupled from the interval: a short interval
	// buys fast detection, but a probe that merely runs long on a loaded
	// worker must not count as a failure, or load alone ejects healthy
	// workers.
	timeout := f.probe
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	h, err := w.cli.Health(ctx)
	cancel()
	if err != nil {
		w.fault()
	} else {
		w.recover()
	}
	if f.onProbe != nil {
		f.onProbe(w, h, err)
	}
}

// jitter spreads d by ±20%. The global rand source is goroutine-safe and
// this is far off the hot path.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}

// close stops the probe loops. Safe to call on an empty set.
func (f *workerSet) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	close(f.stop)
	f.wg.Wait()
}

// healthyCount reports how many workers' probes are passing.
func (f *workerSet) healthyCount() int {
	n := 0
	for _, w := range f.snapshot() {
		if w.isHealthy() {
			n++
		}
	}
	return n
}

// workerError marks an op that failed against a remote worker. retryable
// errors (transport faults, worker 5xx, worker overload) may be rerouted
// to another shard; the rest are the op's own fault and surface directly.
type workerError struct {
	addr      string
	err       error
	retryable bool
}

func (e *workerError) Error() string { return "worker " + e.addr + ": " + e.err.Error() }
func (e *workerError) Unwrap() error { return e.err }

// shardBackend is what a dispatch shard executes micro-batches through:
// an in-process engine replica or a remote worker. attendBatch returns
// one output or error per job, so a partially failed remote batch can
// reroute only the failed ops. decodeBatch executes a continuous-decode
// batch — every job carries a decodeJob — writing results into each job's
// decodeJob and returning one error per job.
type shardBackend interface {
	attendBatch(jobs []*job) ([]*elsa.Output, []error)
	decodeBatch(jobs []*job) []error
	available() bool
	name() string
}

// localBackend runs batches on an in-process engine replica — the
// pre-fleet behaviour, now one implementation of shardBackend.
type localBackend struct {
	eng     *elsa.Engine
	workers int

	// decOps and decErrs are the decode path's reusable staging buffers.
	// Only the lane's own loop calls the backend, one batch at a time
	// (reroutes included), so reuse is race-free, and it keeps the
	// steady-state decode cycle at zero allocations per query.
	decOps  []elsa.StreamOp
	decErrs []error
}

func (b *localBackend) name() string    { return "local" }
func (b *localBackend) available() bool { return true }

func (b *localBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	ops := make([]elsa.BatchOp, len(jobs))
	for i, j := range jobs {
		ops[i] = j.op
	}
	errs := make([]error, len(jobs))
	// Each batch op runs elsa.Attend's pooled-workspace fast path: no
	// per-query allocations and no candidate-list collection (the serving
	// API only reports counts), so concurrent batches reuse warm buffers
	// from the engine's sync.Pool instead of churning the allocator. The
	// shared threshold argument is irrelevant: every op carries its own.
	outs, err := b.eng.AttendBatchContext(context.Background(), ops, elsa.Exact(), b.workers)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return make([]*elsa.Output, len(jobs)), errs
	}
	return outs, errs
}

// decodeBatch runs a continuous-decode batch directly on each session's
// stream state via AttendStreams: per-op pinned thresholds, per-stream
// workspaces, results written straight into each session's recycled
// buffer. Stream-state execution is what keeps a mixed-session batch
// bit-identical to serializing the same queries — each op runs exactly
// the computation the session's own QueryOverrides would have.
func (b *localBackend) decodeBatch(jobs []*job) []error {
	if cap(b.decOps) < len(jobs) {
		b.decOps = make([]elsa.StreamOp, len(jobs))
		b.decErrs = make([]error, len(jobs))
	}
	ops := b.decOps[:len(jobs)]
	errs := b.decErrs[:len(jobs)]
	for i, j := range jobs {
		dec := j.dec
		ops[i] = elsa.StreamOp{
			Stream:    dec.stream,
			Q:         dec.q,
			Overrides: elsa.Overrides{Thr: &dec.thr, P: dec.p, Backend: dec.backend},
			Dst:       dec.out,
		}
	}
	elsa.AttendStreams(ops, elsa.Exact(), b.workers)
	for i, j := range jobs {
		dec := j.dec
		dec.out, dec.stats, errs[i] = ops[i].Out, ops[i].Stats, ops[i].Err
		ops[i] = elsa.StreamOp{} // drop stream/buffer references
	}
	return errs
}

// remoteBackend runs batches on a remote worker by fanning the ops out as
// concurrent /v1/attend calls (bounded by the worker's in-flight cap);
// the worker's own dispatcher re-coalesces them into micro-batches. Every
// op carries its threshold pinned in the wire `t`, so the worker never
// recalibrates and results stay bit-identical to a local run of the same
// engine options.
type remoteBackend struct {
	w    *worker
	opts elsa.Options
}

func (b *remoteBackend) name() string    { return "remote:" + b.w.addr }
func (b *remoteBackend) available() bool { return b.w.routable() }

func (b *remoteBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	outs := make([]*elsa.Output, len(jobs))
	errs := b.fanOut(jobs, func(i int, j *job) error {
		res, err := b.w.cli.Attend(j.ctx, j.op.Q, j.op.K, j.op.V, b.attendOptions(j.op.Thr, j.op.Backend))
		if err != nil {
			return err
		}
		outs[i] = &elsa.Output{
			Context:           res.Context,
			CandidateFraction: res.CandidateFraction,
			FallbackQueries:   res.FallbackQueries,
		}
		return nil
	})
	return outs, errs
}

// decodeBatch materializes each session's prefix onto the wire as a
// one-query /v1/attend op with the session's pinned threshold, so a
// decode batch a lane harvested rides the existing remote worker
// protocol — fleet mode batches too. Rows() aliases the stream's storage
// without copying elements, which is safe here because the session's
// submit/complete handoff blocks appends while the query is in flight.
// Only float-mode sets ever offload decode (see replicaSet.eligible): a
// quantized worker re-quantizes key norms on ingest where the stream
// stored them unquantized, which would break decode's bit-identity
// guarantee.
func (b *remoteBackend) decodeBatch(jobs []*job) []error {
	return b.fanOut(jobs, func(_ int, j *job) error {
		dec := j.dec
		keys, values := dec.stream.Rows()
		res, err := b.w.cli.Attend(j.ctx, [][]float32{dec.q}, keys, values, b.attendOptions(&dec.thr, dec.backend))
		if err != nil {
			return err
		}
		dec.out = append(dec.out[:0], res.Context[0]...)
		dec.stats = elsa.StreamStats{
			Candidates: int(res.CandidateFraction*float64(dec.stream.Len()) + 0.5),
			Fallback:   res.FallbackQueries > 0,
		}
		return nil
	})
}

// fanOut runs call once per job as concurrent requests to the worker,
// each holding one of its in-flight slots, and returns one error per
// job: the requester's context error when it ends before a slot frees,
// else call's error sorted by classify. A success feeds the worker's
// health state.
func (b *remoteBackend) fanOut(jobs []*job, call func(i int, j *job) error) []error {
	errs := make([]error, len(jobs))
	b.w.stats.remoteOps.add(int64(len(jobs)))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			select {
			case b.w.inflight <- struct{}{}:
			case <-j.ctx.Done():
				errs[i] = j.ctx.Err()
				return
			}
			defer func() { <-b.w.inflight }()
			if err := call(i, j); err != nil {
				errs[i] = b.classify(err)
				return
			}
			b.w.recover()
		}(i, j)
	}
	wg.Wait()
	return errs
}

// attendOptions is the wire form of one remote op: the set's engine
// options and the op's operating point.
func (b *remoteBackend) attendOptions(thr *elsa.Threshold, backend string) client.AttendOptions {
	return client.AttendOptions{
		Overrides: wireOverrides(thr, backend),
		HeadDim:   b.opts.HeadDim,
		HashBits:  b.opts.HashBits,
		Seed:      b.opts.Seed,
		Quantized: b.opts.Quantized,
	}
}

// wireOverrides is the operating point a remote op carries: its pinned
// threshold, or for an op pinned to an exact backend the backend alone.
// The wire rejects t beside backend, and a backend implies p = 0, which
// the worker resolves to the exact threshold by itself.
func wireOverrides(thr *elsa.Threshold, backend string) elsa.Overrides {
	if backend != elsa.BackendAuto {
		return elsa.Overrides{Backend: backend}
	}
	return elsa.Overrides{Thr: thr}
}

// classify sorts one remote failure into the dispatcher's retry
// taxonomy: a failure the worker is to blame for, or that its overload
// caused, reroutes; anything else is terminal for the op, and the
// requester's own context ending passes through unwrapped.
func (b *remoteBackend) classify(err error) error {
	api, retryable := b.w.failure(err)
	if api == nil && !retryable {
		// The requester is gone or out of budget; says nothing about the
		// worker and there is no time left to reroute.
		return err
	}
	return &workerError{addr: b.w.addr, err: err, retryable: retryable}
}

// failure classifies one failed call to the worker, for one-shot ops
// and sessions alike. retryable reports a worker that is dead, failing
// or overloaded, so the call may go elsewhere: a transport fault
// (connection refused, reset, EOF — the classic signature of a dying
// host), a 5xx, or a 429. Transport faults and 5xx other than 503 are
// the worker's fault and count toward its ejection; overload (429/503)
// blames nothing. api is the worker's reply when it sent one; a nil api
// that is not retryable is the requester's own context ending.
func (w *worker) failure(err error) (api *client.APIError, retryable bool) {
	if errors.As(err, &api) {
		switch {
		case api.Status == http.StatusTooManyRequests || api.Status == http.StatusServiceUnavailable:
			return api, true
		case api.Status >= 500:
			w.fault()
			return api, true
		}
		return api, false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, false
	}
	w.fault()
	return nil, true
}
