package serve

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"elsa"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// Errors surfaced by the session registry to the HTTP layer.
var (
	// errSessionNotFound covers unknown, expired, and evicted session IDs
	// alike: once a session leaves the registry its ID is gone (HTTP 404).
	errSessionNotFound = errors.New("serve: session not found")
	// errSessionFull means an append would push the session past the
	// per-session token budget (HTTP 413).
	errSessionFull = errors.New("serve: session token limit reached")
	// errWorkerLost means a session's pinned remote worker is unreachable
	// or failing. Session state lives on the worker, so unlike idempotent
	// attend ops nothing can reroute; the client sees 503 with Retry-After
	// and must recreate the session when the fleet recovers.
	errWorkerLost = errors.New("serve: session worker unavailable")
	// errDraining means this server is draining: it finishes existing
	// sessions but refuses to place new ones (HTTP 503 + Retry-After, so
	// clients land on another member).
	errDraining = errors.New("serve: server draining, not accepting new sessions")
	// errSessionExists refuses an import under an ID this server already
	// holds (HTTP 409): migration must not silently clobber live state.
	errSessionExists = errors.New("serve: session already exists")
	// errNotExportable means the session's state is not locally available
	// to serialize — a remote-pinned session whose shadow mirror was lost
	// (HTTP 409).
	errNotExportable = errors.New("serve: session state not locally available for export")
)

// session is one autoregressive decode stream, held locally on its
// set's engine or pinned to a remote worker (exactly one of stream/remote
// is set). The local stream (and its workspace) is single-goroutine by
// contract, and a remote session's appends must observe each other's
// prefix, so the gate serializes the session's own traffic either way.
// The gate is a submit/complete handoff rather than a mutex: a query
// holds it while its decode step is in flight in the dispatcher — so a
// lane can coalesce queries from many sessions into one batch while each
// session's appends queue behind its own in-flight query — and releases
// it only after the result is written back.
type session struct {
	id   string
	opts elsa.Options
	set  *replicaSet
	// remote/w are set for a session pinned to a remote worker: remote is
	// the worker-side handle (under the worker's own session ID), w feeds
	// dispatch failures into the worker's health state.
	remote *client.Session
	w      *worker
	// clientID and class are inherited from the creating request's
	// envelope: every append/query on the session is charged against the
	// creator's quota at the creator's priority.
	clientID string
	class    Class
	// capacity is the creator's requested pre-allocation, carried so an
	// exported session re-creates with the same hint.
	capacity int

	// gate (capacity 1) admits one append or query at a time; everything
	// below it is owned by the holder.
	gate   chan struct{}
	stream *elsa.Stream
	// shadow, for remote-pinned sessions, is a deterministic local mirror
	// of the worker-side stream on the set's engine: engines built from
	// the same options are bit-identical, so replaying accepted appends
	// yields bit-identical state. It is what export, migration, and
	// worker-loss recovery serialize without asking the worker. Every
	// append the worker accepts is replayed onto it before the append
	// returns, so it is never behind. Nil once a mirror append ever fails
	// (divergent state must not be served) or after the shadow is adopted
	// as the live stream.
	shadow *elsa.Stream
	// spilled marks a local session whose stream has been paged out to the
	// state dir; ensureResident brings it back before any use.
	spilled bool
	p       float64
	thr     elsa.Threshold
	// backend pins the session's exact backend for every query that does
	// not carry its own selector ("" = the filter pipeline at the session
	// threshold). Only exact sessions (p = 0) can pin one.
	backend string
	// calibrated marks thr as resolved; false defers threshold resolution
	// to the first query, which calibrates over the prefix appended by
	// then (the stream's own keys are the calibration sample).
	calibrated bool
	// dec is the session's reusable decode job — its embedded dispatcher
	// job and result channel included — so a steady-state decode query
	// queues in its set's decode class queue without allocating.
	dec decodeJob

	// lastUsed and el are owned by the registry lock, not the gate.
	lastUsed time.Time
	el       *list.Element
}

// acquire takes the session's gate, abandoning the wait if ctx expires
// first. A successful acquire must be paired with release.
func (s *session) acquire(ctx context.Context) error {
	select {
	case s.gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *session) release() { <-s.gate }

// sessionRegistry owns the live decode sessions: bounded in count (LRU
// eviction at capacity), bounded per session in tokens, and expired by
// idle TTL. It is the serving-layer analogue of a KV-cache manager —
// each session pins one incremental ELSA preprocessing state to a host.
type sessionRegistry struct {
	maxSessions int
	maxTokens   int
	ttl         time.Duration
	now         func() time.Time // injectable for TTL tests
	thresholds  *thresholdRegistry
	metrics     *Metrics
	// place maps a session's ID onto this server or a remote worker other
	// than avoid — the cluster view's consistent-hash placement. New sets
	// it before serving.
	place func(set *replicaSet, key string, avoid *worker) (w *worker, local bool)
	// disp routes local decode queries through the dispatcher so
	// concurrently-ready sessions coalesce into one batch. New sets it
	// before serving.
	disp *dispatcher
	// coldWatermark configures each session stream's hot/cold split (0
	// keeps whole streams hot); spillAfter and stateDir, when both set,
	// page sessions idle past spillAfter out to disk. All are fixed
	// before serving.
	coldWatermark int
	spillAfter    time.Duration
	stateDir      string

	mu   sync.Mutex
	byID map[string]*session
	lru  *list.List // front = most recently used; values are *session
}

func newSessionRegistry(maxSessions, maxTokens int, ttl time.Duration, thr *thresholdRegistry, m *Metrics) *sessionRegistry {
	return &sessionRegistry{
		maxSessions: maxSessions,
		maxTokens:   maxTokens,
		ttl:         ttl,
		now:         time.Now,
		thresholds:  thr,
		metrics:     m,
		byID:        make(map[string]*session),
		lru:         list.New(),
	}
}

// create registers a new session hosted on set's engine or pinned to a
// routable remote worker. Placement hashes the fresh session ID
// onto the cluster's consistent-hash ring (falling back to rotation),
// so membership churn moves only the minimal slice of future
// placements. The threshold is resolved eagerly when possible (explicit
// t, p = 0, or a registry/state-dir hit); otherwise the first query
// calibrates it over the prefix. At capacity the least-recently-used
// session is evicted rather than refusing the new one — new decode work
// beats stale state.
func (g *sessionRegistry) create(ctx context.Context, set *replicaSet, opts elsa.Options, p float64, t *float64, backend string, capacity int, meta requestMeta) (*session, error) {
	var thr *elsa.Threshold
	if t != nil {
		thr = &elsa.Threshold{P: p, T: *t}
	}
	s := g.newSession(newSessionID(), set, opts, p, thr, backend, capacity, meta)
	w, local := g.place(set, s.id, nil)
	switch {
	case local:
		s.stream = set.engine.NewStreamCold(s.capacity, g.coldWatermark)
	case w != nil:
		// Pin the session to the worker by opening the worker-side stream
		// now. A calibrated threshold travels pinned so the worker never
		// recalibrates; an uncalibrated p still calibrates lazily — on the
		// worker, over the same prefix, against the same deterministic
		// engine — so results match a local session.
		so := client.SessionOptions{
			Overrides: elsa.Overrides{Backend: backend},
			HeadDim:   opts.HeadDim,
			HashBits:  opts.HashBits,
			Seed:      opts.Seed,
			Quantized: opts.Quantized,
			Capacity:  s.capacity,
		}
		if s.calibrated {
			thr := s.thr
			so.Thr = &thr
		} else {
			so.P = p
		}
		remote, err := w.cli.NewSession(ctx, so)
		if err != nil {
			return nil, mapRemoteErr(w, err)
		}
		s.remote, s.w = remote, w
		if remote.Threshold != nil {
			s.thr, s.calibrated = *remote.Threshold, true
		}
		w.recover()
		// Shadow mirror: engines across the fleet are built
		// deterministically from the same resolved options, so replaying
		// every accepted append locally keeps a bit-identical copy of the
		// worker-side stream — the portable state that drain migration and
		// worker-loss recovery serialize. The set's engine exists even at
		// zero local lanes.
		s.shadow = set.engine.NewStreamCold(s.capacity, g.coldWatermark)
	default:
		return nil, errWorkerLost
	}
	if err := g.insert(s); err != nil {
		g.closeRemote(s.remote)
		return nil, err
	}
	return s, nil
}

// newSession builds a session's fixed state — identity, configuration,
// creator, gate and decode job — with its threshold resolved when it
// already can be: thr when given, exact at p = 0, else a registry or
// state-dir hit. A capacity outside [0, maxTokens] is dropped.
func (g *sessionRegistry) newSession(id string, set *replicaSet, opts elsa.Options, p float64, thr *elsa.Threshold, backend string, capacity int, meta requestMeta) *session {
	if capacity < 0 || capacity > g.maxTokens {
		capacity = 0
	}
	s := &session{
		id:       id,
		opts:     opts,
		set:      set,
		clientID: meta.clientID,
		class:    meta.class,
		capacity: capacity,
		p:        p,
		backend:  backend,
		gate:     make(chan struct{}, 1),
	}
	s.dec.init()
	if thr != nil {
		s.thr, s.calibrated = *thr, true
	} else {
		s.thr, s.calibrated = g.thresholds.lookup(opts, p)
	}
	return s
}

// insert registers s under its ID, refusing an ID already held, after
// sweeping idle-expired sessions and — at capacity — evicting the
// least-recently-used.
func (g *sessionRegistry) insert(s *session) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, exists := g.byID[s.id]; exists {
		return errSessionExists
	}
	g.sweepLocked()
	for len(g.byID) >= g.maxSessions {
		g.evictLocked(g.lru.Back(), "lru")
	}
	s.lastUsed = g.now()
	s.el = g.lru.PushFront(s)
	g.byID[s.id] = s
	g.metrics.sessionsCreated.add(1)
	return nil
}

// lookup returns the live session for id, refreshing its LRU/TTL
// position. An expired session is evicted here and reported missing.
func (g *sessionRegistry) lookup(id string) (*session, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.byID[id]
	if !ok {
		return nil, errSessionNotFound
	}
	now := g.now()
	if g.ttl > 0 && now.Sub(s.lastUsed) > g.ttl {
		g.evictLocked(s.el, "ttl")
		return nil, errSessionNotFound
	}
	s.lastUsed = now
	g.lru.MoveToFront(s.el)
	return s, nil
}

// remove deletes a session explicitly (DELETE /v1/sessions/{id}).
func (g *sessionRegistry) remove(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.byID[id]
	if !ok {
		return errSessionNotFound
	}
	g.evictLocked(s.el, "deleted")
	return nil
}

// meta reports the client that created the session and its inherited
// priority class, without refreshing the session's LRU/TTL position (a
// quota check is not a use).
func (g *sessionRegistry) meta(id string) (string, Class, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.byID[id]
	if !ok {
		return "", ClassInteractive, errSessionNotFound
	}
	return s.clientID, s.class, nil
}

// active reports the number of live sessions.
func (g *sessionRegistry) active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.byID)
}

// pinnedCounts reports live sessions per remote worker address, plus
// locally-hosted sessions under "local" — the drain-progress numbers the
// cluster listing shows.
func (g *sessionRegistry) pinnedCounts() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	counts := make(map[string]int)
	for _, s := range g.byID {
		if s.w != nil {
			counts[s.w.addr]++
		} else {
			counts["local"]++
		}
	}
	return counts
}

// evictAll removes every session under the given reason — the drain
// deadline's forced expiry. Returns how many were evicted.
func (g *sessionRegistry) evictAll(reason string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for back := g.lru.Back(); back != nil; back = g.lru.Back() {
		g.evictLocked(back, reason)
		n++
	}
	return n
}

// sweepLocked evicts every idle-expired session, oldest first. Callers
// hold g.mu.
func (g *sessionRegistry) sweepLocked() {
	if g.ttl <= 0 {
		return
	}
	now := g.now()
	for back := g.lru.Back(); back != nil; back = g.lru.Back() {
		s := back.Value.(*session)
		if now.Sub(s.lastUsed) <= g.ttl {
			return
		}
		g.evictLocked(back, "ttl")
	}
}

// evictLocked removes one session by its LRU element. Callers hold g.mu.
// An in-flight append/query on the evicted session still completes — it
// holds its own reference to the stream — but the ID resolves no further.
// A worker-pinned session's remote half is deleted best-effort off the
// lock; if the worker is gone its own TTL reaps the orphan.
func (g *sessionRegistry) evictLocked(el *list.Element, reason string) {
	if el == nil {
		return
	}
	s := el.Value.(*session)
	g.lru.Remove(el)
	delete(g.byID, s.id)
	g.metrics.sessionEvictions.with(reason).add(1)
	if s.spilled {
		os.Remove(g.spillPath(s.id)) //nolint:errcheck // best effort; dir is ours
	}
	g.closeRemote(s.remote)
}

// closeRemote deletes a worker-side session best-effort off any locks;
// if the worker is gone its own TTL reaps the orphan.
func (g *sessionRegistry) closeRemote(remote *client.Session) {
	if remote == nil {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		remote.Close(ctx) //nolint:errcheck // best effort; worker TTL reaps orphans
	}()
}

// append adds tokens to the session and returns its new length. Appends
// queue on the session gate behind any in-flight decode query, so a
// stream is never mutated while a decode batch (or a remote worker
// materializing its rows) is reading it. Losing the pinned worker
// triggers one in-place recovery from the shadow mirror, then the
// append retries once: the mirror only advances on remote success, so
// the recovered state never contains the failed append and the retry is
// at-most-once safe.
func (g *sessionRegistry) append(ctx context.Context, id string, keys, values [][]float32) (int, error) {
	s, err := g.lookup(id)
	if err != nil {
		return 0, err
	}
	if err := s.acquire(ctx); err != nil {
		return 0, err
	}
	defer s.release()
	n, err := g.appendHeld(ctx, s, keys, values)
	if errors.Is(err, errWorkerLost) && g.recoverHeld(ctx, s) {
		n, err = g.appendHeld(ctx, s, keys, values)
	}
	return n, err
}

// appendHeld performs one append attempt; the caller holds the gate.
// The session takes every row or none: each row is checked before the
// first one is appended, so a refused batch leaves the session, its
// worker and its shadow as they were.
func (g *sessionRegistry) appendHeld(ctx context.Context, s *session, keys, values [][]float32) (int, error) {
	if s.remote != nil {
		if err := checkRows(s.set.engine, keys, values); err != nil {
			return 0, err
		}
		n, err := s.remote.AppendBatch(ctx, keys, values)
		if err != nil {
			return 0, mapRemoteErr(s.w, err)
		}
		s.w.recover()
		g.mirror(s, keys, values)
		g.metrics.sessionTokens.add(int64(len(keys)))
		return n, nil
	}
	if err := g.ensureResident(s); err != nil {
		return 0, err
	}
	if s.stream.Len()+len(keys) > g.maxTokens {
		return s.stream.Len(), errSessionFull
	}
	if err := checkRows(s.set.engine, keys, values); err != nil {
		return s.stream.Len(), err
	}
	for i := range keys {
		if err := s.stream.Append(keys[i], values[i]); err != nil {
			return s.stream.Len(), err
		}
	}
	g.metrics.sessionTokens.add(int64(len(keys)))
	return s.stream.Len(), nil
}

// checkRows returns the error the first bad row of an append batch
// would meet in eng's Stream.Append, or nil when every row would go in.
func checkRows(eng *elsa.Engine, keys, values [][]float32) error {
	for i := range keys {
		if err := eng.CheckAppend(keys[i], values[i]); err != nil {
			return err
		}
	}
	return nil
}

// mirror replays appends the remote worker accepted onto the local
// shadow, under the gate the caller holds, so every shadow reader
// (export, migration, worker-loss recovery) finds it current. The shadow
// only ever holds appends the worker accepted, which keeps recovery's
// retry at-most-once. A replay failure (impossible while both sides run
// the same engine config) drops the shadow rather than ever serving
// divergent state from it.
func (g *sessionRegistry) mirror(s *session, keys, values [][]float32) {
	if s.shadow == nil {
		return
	}
	start := time.Now()
	for i := range keys {
		if err := s.shadow.Append(keys[i], values[i]); err != nil {
			s.shadow = nil
			return
		}
	}
	g.metrics.mirrorTokens.add(int64(len(keys)))
	g.metrics.mirrorNanos.Add(int64(time.Since(start)))
}

// queryInto runs one decode step: resolve the threshold if this is the
// session's first calibrated query, then attend over the prefix at the
// session threshold (or the query's own override) through the
// dispatcher, where concurrently-ready sessions coalesce into one batch.
// It returns the context vector, written into dst when dst is large
// enough (the /query handler passes nil and gets an owned vector), and
// the size of the batch the query rode in. It is a step wave of one
// entry, without the wave's bookkeeping, so a caller recycling dst
// across queries decodes with zero steady-state allocations.
func (g *sessionRegistry) queryInto(ctx context.Context, id string, dst []float32, q []float32, ov elsa.Overrides, deadline time.Time) ([]float32, elsa.StreamStats, int, elsa.Threshold, int, error) {
	s, err := g.lookup(id)
	if err == nil {
		err = s.acquire(ctx)
	}
	if err != nil {
		return dst, elsa.StreamStats{}, 0, elsa.Threshold{}, 0, err
	}
	defer s.release()
	e := stepEntry{ID: id, Q: q, Ov: ov, Out: dst}
	if g.submitHeld(ctx, s, &e, deadline) {
		g.disp.kick(s.set, true)
		g.collectHeld(s, &e)
	}
	return e.Out, e.Stats, e.Len, e.Thr, e.BatchSize, e.Err
}

// submitHeld starts one session's decode step; the caller holds the
// gate. A local session on a set with no local lane (imported onto, or
// adopted by, a dispatch-only frontend) first moves to its placed worker.
// A remote-pinned session's query runs to completion here. A local one is
// prepared — made resident, its threshold and backend resolved, the
// session's reusable decodeJob filled with the operating point pinned —
// and queued in the set's decode class queue without a kick; with no
// local lane the queue refuses it with ErrNoWorkers. It reports whether
// the step was queued: the caller then owes the set a kick and a
// collectHeld. Otherwise the step is over, e.Err holding any failure.
func (g *sessionRegistry) submitHeld(ctx context.Context, s *session, e *stepEntry, deadline time.Time) bool {
	if s.remote == nil && s.set.local == 0 {
		if w, _ := g.place(s.set, s.id, nil); w != nil {
			g.migrateHeld(ctx, s, w)
		}
	}
	if s.remote != nil && g.queryRemoteHeld(ctx, s, e) {
		return false
	}
	if e.Err = g.ensureResident(s); e.Err != nil {
		return false
	}
	thr, err := g.resolveThreshold(s, e.Ov)
	if err != nil {
		e.Err = err
		return false
	}
	backend, err := g.resolveBackend(s, e.Ov, thr)
	if err != nil {
		e.Err = err
		return false
	}
	dec := &s.dec
	dec.stream, dec.q, dec.thr, dec.p, dec.backend, dec.out = s.stream, e.Q, thr, s.p, backend, e.Out
	dec.j.ctx, dec.j.class, dec.j.attempts = ctx, s.class, 0
	if err := g.disp.enqueue(s.set, &dec.j, deadline); err != nil {
		dec.stream, dec.q = nil, nil
		e.Err = err
		return false
	}
	e.Thr = thr
	return true
}

// collectHeld waits for the step submitHeld queued and writes its result
// into e. The wait is unconditional: every dispatcher path delivers
// (runBatch answers expired contexts, lanes keep harvesting through
// shutdown), and returning early on ctx.Done would let a lane write into
// the job after the session's gate moved on.
func (g *sessionRegistry) collectHeld(s *session, e *stepEntry) {
	dec := &s.dec
	r := <-dec.j.result
	e.Out = dec.out
	dec.stream, dec.q = nil, nil
	if r.err != nil {
		e.Err = r.err
		return
	}
	g.metrics.sessionQueries.add(1)
	e.Stats, e.Len, e.BatchSize = dec.stats, s.stream.Len(), r.batchSize
}

// queryRemoteHeld runs e's query on s's pinned worker, re-homing the
// session once on worker loss; the caller holds the gate. It returns
// false when recovery adopted the session locally: the query then takes
// the local path instead.
func (g *sessionRegistry) queryRemoteHeld(ctx context.Context, s *session, e *stepEntry) bool {
	res, err := s.remote.Query(ctx, e.Q, e.Ov)
	if err != nil {
		err = mapRemoteErr(s.w, err)
		if errors.Is(err, errWorkerLost) && g.recoverHeld(ctx, s) {
			if s.remote == nil {
				return false
			}
			if res, err = s.remote.Query(ctx, e.Q, e.Ov); err != nil {
				err = mapRemoteErr(s.w, err)
			}
		}
	}
	if err != nil {
		e.Err = err
		return true
	}
	s.w.recover()
	s.thr, s.calibrated = res.Threshold, true
	g.metrics.sessionQueries.add(1)
	e.Out = res.Context
	e.Stats = elsa.StreamStats{Candidates: res.Candidates, Fallback: res.Fallback}
	e.Len, e.Thr, e.BatchSize = res.Len, res.Threshold, max(res.BatchSize, 1)
	return true
}

// resolveThreshold resolves the operating point for one query on a
// local session whose gate the caller holds. A query pinned to its own
// threshold doesn't need the session's resolved; lazy calibration waits
// for the first query that does, and calibrates over the session's own
// prefix — the keys this stream will attend over are exactly the
// distribution the threshold must cover. The registry dedups and
// persists the result, so the next session at this operating point
// skips this step.
func (g *sessionRegistry) resolveThreshold(s *session, ov elsa.Overrides) (elsa.Threshold, error) {
	if !s.calibrated && ov.Thr == nil {
		if s.stream.Len() == 0 {
			return elsa.Threshold{},
				fmt.Errorf("serve: cannot calibrate p=%g on an empty session; append keys first", s.p)
		}
		thr, err := g.thresholds.get(s.opts, s.p, func() (elsa.Threshold, error) {
			keys := s.stream.Keys()
			return s.set.engine.Calibrate(s.p, []elsa.Sample{{Q: keys, K: keys}})
		})
		if err != nil {
			return elsa.Threshold{}, err
		}
		s.thr, s.calibrated = thr, true
	}
	return ov.Resolve(s.thr), nil
}

// resolveBackend picks one query's effective exact backend: the query's
// own selector, falling back to the backend the session pinned at
// create. Exact backends never consult the filter, so a non-auto
// selector is refused when the query's resolved operating point is
// approximate — routing an approximate session through an exact backend
// would silently change what the caller calibrated for.
func (g *sessionRegistry) resolveBackend(s *session, ov elsa.Overrides, thr elsa.Threshold) (string, error) {
	backend := ov.Backend
	if backend == elsa.BackendAuto {
		backend = s.backend
	}
	if backend != elsa.BackendAuto && thr.P != 0 {
		return "", fmt.Errorf("serve: backend %q requires an exact operating point (p = 0)", backend)
	}
	return backend, nil
}

// spillPath is where a spilled session's exported state lives: one file
// per session ID (hex, so always a clean file name) under the state dir.
func (g *sessionRegistry) spillPath(id string) string {
	return filepath.Join(g.stateDir, "session-"+id+".state")
}

// spillIdle pages sessions idle longer than spillAfter out to the state
// dir and frees their resident streams — the serving layer's KV-cache
// paging. Only locally-hosted sessions spill: a remote session's shadow
// must stay resident so migration and recovery keep working. Sessions
// whose gate is busy are skipped; they are not idle after all.
func (g *sessionRegistry) spillIdle() {
	if g.spillAfter <= 0 || g.stateDir == "" {
		return
	}
	g.mu.Lock()
	now := g.now()
	var idle []*session
	for el := g.lru.Back(); el != nil; el = el.Prev() {
		s := el.Value.(*session)
		if now.Sub(s.lastUsed) < g.spillAfter {
			break // LRU order: everything nearer the front is younger
		}
		if s.remote == nil && !s.spilled {
			idle = append(idle, s)
		}
	}
	g.mu.Unlock()
	for _, s := range idle {
		select {
		case s.gate <- struct{}{}:
		default:
			continue
		}
		g.spillHeld(s)
		s.release()
	}
}

// spillHeld writes one session's exported state to disk (atomic temp +
// rename) and drops the resident stream; the caller holds the gate.
// Any failure leaves the session resident — spilling is best-effort.
func (g *sessionRegistry) spillHeld(s *session) {
	if s.remote != nil || s.spilled || s.stream == nil {
		return
	}
	tmp, err := os.CreateTemp(g.stateDir, "session-*.tmp")
	if err != nil {
		return
	}
	_, err = tmp.Write(s.stream.Export())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), g.spillPath(s.id))
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best effort
		return
	}
	s.stream = nil
	s.spilled = true
	g.metrics.sessionsSpilled.add(1)
}

// ensureResident rehydrates a spilled session from its state file; the
// caller holds the gate. The file is removed once the state is resident
// again, so disk holds a session's state exactly while memory does not.
func (g *sessionRegistry) ensureResident(s *session) error {
	if !s.spilled {
		return nil
	}
	path := g.spillPath(s.id)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serve: rehydrate session %s: %w", s.id, err)
	}
	st, err := s.set.engine.ImportStream(data)
	if err != nil {
		return fmt.Errorf("serve: rehydrate session %s: %w", s.id, err)
	}
	s.stream = st
	s.spilled = false
	os.Remove(path) //nolint:errcheck // best effort; eviction sweeps leftovers
	g.metrics.sessionsRehydrated.add(1)
	return nil
}

// export captures a session's portable state under its gate, so no
// decode step is mid-flight over the stream being serialized.
func (g *sessionRegistry) export(ctx context.Context, id string) (*wire.SessionExportResponse, error) {
	s, err := g.lookup(id)
	if err != nil {
		return nil, err
	}
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	blob, n, err := g.stateHeld(s)
	if err != nil {
		return nil, err
	}
	return s.portable(blob, n), nil
}

// portable wraps a serialized stream of n tokens in the session's
// portable state: everything an import needs to rebuild it elsewhere.
func (s *session) portable(blob []byte, n int) *wire.SessionExportResponse {
	st := &wire.SessionExportResponse{
		ID:        s.id,
		State:     blob,
		Len:       n,
		Capacity:  s.capacity,
		HeadDim:   s.opts.HeadDim,
		HashBits:  s.opts.HashBits,
		Seed:      s.opts.Seed,
		Quantized: s.opts.Quantized,
		P:         s.p,
		Backend:   s.backend,
	}
	if s.calibrated {
		thr := s.thr
		st.Threshold = &thr
	}
	return st
}

// stateHeld serializes the session's state and reports its length; the
// caller holds the gate. A local session exports its stream (rehydrated
// first if spilled); a remote-pinned one exports its shadow mirror.
func (g *sessionRegistry) stateHeld(s *session) ([]byte, int, error) {
	if s.remote == nil {
		if err := g.ensureResident(s); err != nil {
			return nil, 0, err
		}
		return s.stream.Export(), s.stream.Len(), nil
	}
	if s.shadow == nil {
		return nil, 0, errNotExportable
	}
	return s.shadow.Export(), s.shadow.Len(), nil
}

// adopt registers a session rebuilt from exported state under its
// original ID — the receiving half of live migration. The session is
// hosted locally on set's engine regardless of placement: the sender
// already chose this server. On a set with no local lane its next query
// moves it to a worker. Returns the rebuilt prefix length.
func (g *sessionRegistry) adopt(set *replicaSet, opts elsa.Options, id string, state []byte, p float64, thr *elsa.Threshold, backend string, capacity int, meta requestMeta) (int, error) {
	s := g.newSession(id, set, opts, p, thr, backend, capacity, meta)
	st, err := set.engine.ImportStream(state)
	if err != nil {
		return 0, fmt.Errorf("import: %w", err)
	}
	if st.Len() > g.maxTokens {
		return 0, errSessionFull
	}
	s.stream = st
	if err := g.insert(s); err != nil {
		return 0, err
	}
	return st.Len(), nil
}

// pushState imports the session's shadow state onto worker w, returning
// the new remote handle; the caller holds the gate. A 409 means w still
// holds an earlier copy under this ID, one it was given before the
// session was moved off it while it was unreachable: the state under the
// gate is the live one, so the stale copy is closed and the import
// retried once.
func (g *sessionRegistry) pushState(ctx context.Context, w *worker, s *session) (*client.Session, error) {
	st := s.portable(s.shadow.Export(), s.shadow.Len())
	remote, err := w.cli.ImportSession(ctx, st)
	var api *client.APIError
	if errors.As(err, &api) && api.Status == http.StatusConflict {
		if err = w.cli.CloseSession(ctx, s.id); err == nil {
			remote, err = w.cli.ImportSession(ctx, st)
		}
	}
	if err != nil {
		return nil, mapRemoteErr(w, err)
	}
	w.recover()
	return remote, nil
}

// replaceHeld moves a remote-pinned session off the worker `avoid` while
// its gate is held: migrate it to the routable worker placement picks
// past avoid, or else adopt the shadow as the live local stream (the
// shadow already IS the exact state) and close the old worker-side
// session best-effort. Returns false only when the session has no shadow
// to move.
func (g *sessionRegistry) replaceHeld(ctx context.Context, s *session, avoid *worker) bool {
	if s.remote == nil {
		return false
	}
	if w, _ := g.place(s.set, s.id, avoid); w != nil && g.migrateHeld(ctx, s, w) {
		return true
	}
	if s.shadow == nil {
		return false
	}
	g.closeRemote(s.remote)
	s.stream, s.shadow = s.shadow, nil
	s.remote, s.w = nil, nil
	return true
}

// recoverHeld re-homes a remote-pinned session from its shadow after a
// worker loss. A freshly-dead worker can still look routable (health
// demotion needs consecutive faults), so placement walks past the lost
// worker to a surviving one; placement failing that, the shadow is
// adopted locally. The
// shadow advances only on remote success, so the recovered state never
// contains the op that just failed — the caller's single retry is
// at-most-once safe. Returns whether the session is usable again.
func (g *sessionRegistry) recoverHeld(ctx context.Context, s *session) bool {
	if !g.replaceHeld(ctx, s, s.w) {
		return false
	}
	g.metrics.sessionsRecovered.add(1)
	return true
}

// relocate live-migrates every session pinned to addr onto other
// members (or onto this server when no other worker is routable),
// returning how many moved. The cluster drain handler calls it after
// marking the member draining, so placement cannot choose addr again.
func (g *sessionRegistry) relocate(ctx context.Context, addr string) int {
	g.mu.Lock()
	var pinned []*session
	for _, s := range g.byID {
		if s.w != nil && s.w.addr == addr {
			pinned = append(pinned, s)
		}
	}
	g.mu.Unlock()
	moved := 0
	for _, s := range pinned {
		if err := s.acquire(ctx); err != nil {
			break
		}
		// The session may have been recovered or already migrated between
		// the snapshot above and taking its gate.
		if s.w != nil && s.w.addr == addr && g.replaceHeld(ctx, s, s.w) {
			moved++
			g.metrics.sessionsMigrated.add(1)
		}
		s.release()
	}
	return moved
}

// rebalance live-migrates sessions toward the member at addr: every
// session whose consistent-hash placement now prefers addr (typically
// because it just joined the ring) but is hosted elsewhere moves onto it
// through the same export/import path drain uses. Sessions the ring
// still places elsewhere stay put, so repeated rebalances converge
// instead of thrashing; max > 0 bounds one call's moves. Busy sessions
// (gate held by an in-flight op) are skipped — the next rebalance pass
// picks them up. Returns how many sessions moved.
func (g *sessionRegistry) rebalance(ctx context.Context, addr string, max int) int {
	g.mu.Lock()
	cands := make([]*session, 0, len(g.byID))
	for _, s := range g.byID {
		if s.w == nil || s.w.addr != addr {
			cands = append(cands, s)
		}
	}
	g.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	moved := 0
	for _, s := range cands {
		if max > 0 && moved >= max {
			break
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case s.gate <- struct{}{}:
		default:
			continue
		}
		// Re-check under the gate (the session may have moved since the
		// snapshot), then ask placement where this session lands today.
		w, _ := g.place(s.set, s.id, nil)
		if w != nil && w.addr == addr &&
			(s.w == nil || s.w.addr != addr) && g.migrateHeld(ctx, s, w) {
			moved++
			g.metrics.sessionsMigrated.add(1)
		}
		s.release()
	}
	return moved
}

// migrateHeld pushes one session's state onto worker w and repins it
// there; the caller holds the gate. A remote-pinned session ships its
// shadow mirror; a locally-hosted one ships its live
// stream and keeps that stream as the new shadow, so the bit-identical
// local copy survives the move. Failure leaves the session exactly where
// it was.
func (g *sessionRegistry) migrateHeld(ctx context.Context, s *session, w *worker) bool {
	if s.remote == nil {
		if err := g.ensureResident(s); err != nil {
			return false
		}
		s.shadow, s.stream = s.stream, nil
		remote, err := g.pushState(ctx, w, s)
		if err != nil {
			s.stream, s.shadow = s.shadow, nil
			return false
		}
		s.remote, s.w = remote, w
		return true
	}
	if s.shadow == nil {
		return false
	}
	old := s.remote
	remote, err := g.pushState(ctx, w, s)
	if err != nil {
		return false
	}
	s.remote, s.w = remote, w
	g.closeRemote(old)
	return true
}

// stepEntry is one session's slot in a cross-session decode wave
// (POST /v1/sessions/step). The caller fills ID, Q, and Ov — or pre-sets
// Err to mark an entry already refused (quota shedding) — and step fills
// the rest. Entries fail independently: a bad ID or a shed entry never
// fails its neighbours.
type stepEntry struct {
	ID string
	Q  []float32
	Ov elsa.Overrides

	Out       []float32
	Stats     elsa.StreamStats
	Len       int
	Thr       elsa.Threshold
	BatchSize int
	Err       error
}

// step decodes one token for every entry as a single wave. All session
// gates are acquired first — in session-ID order, so two overlapping
// waves cannot deadlock on each other's entries — then every entry is
// submitted as a lone query would be (submitHeld), and each touched set
// is kicked only after the whole wave is queued. The harvest therefore
// sees the full wave (plus any decode traffic already pending) as one
// batch, instead of the wave trickling out one entry at a time; and the
// wave needs no
// goroutine per entry, so the per-token cost of a step request is the
// batch's shared dispatch plus one result receive.
func (g *sessionRegistry) step(ctx context.Context, entries []stepEntry, deadline time.Time) {
	// Phase 1: resolve and lock. Duplicate IDs are refused up front — the
	// second acquire would otherwise wait on a gate this same wave holds.
	order := make([]int, 0, len(entries))
	seen := make(map[string]struct{}, len(entries))
	for i := range entries {
		e := &entries[i]
		if e.Err != nil {
			continue
		}
		if _, dup := seen[e.ID]; dup {
			e.Err = fmt.Errorf("serve: session %s appears more than once in one step wave", e.ID)
			continue
		}
		seen[e.ID] = struct{}{}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return entries[order[a]].ID < entries[order[b]].ID })
	held := make([]*session, len(entries))
	for _, i := range order {
		e := &entries[i]
		s, err := g.lookup(e.ID)
		if err != nil {
			e.Err = err
			continue
		}
		if err := s.acquire(ctx); err != nil {
			e.Err = err
			continue
		}
		held[i] = s
	}

	// Phase 2: submit. Queued entries keep their gates; every other entry
	// is already answered and releases its gate now. Only then is each
	// touched set kicked; a repeat kick of a set finds its queue already
	// harvested and does nothing.
	for i, s := range held {
		if s != nil && !g.submitHeld(ctx, s, &entries[i], deadline) {
			s.release()
			held[i] = nil
		}
	}
	var kicked *replicaSet
	for _, s := range held {
		if s != nil && s.set != kicked {
			kicked = s.set
			g.disp.kick(kicked, true)
		}
	}

	// Phase 3: collect, releasing each gate only after its result is
	// written back — the same submit/complete handoff a lone query
	// observes.
	for i, s := range held {
		if s != nil {
			g.collectHeld(s, &entries[i])
			s.release()
		}
	}
}

// mapRemoteErr translates a worker-side session failure into the
// registry's error taxonomy, feeding the worker's health state through
// failure. Session state cannot reroute, so a dead, failing or
// overloaded worker becomes errWorkerLost (HTTP 503 + Retry-After); a
// worker that forgot the session (restart, its own TTL) is
// errSessionNotFound; the worker's own token-limit refusal passes
// through as errSessionFull.
func mapRemoteErr(w *worker, err error) error {
	api, lost := w.failure(err)
	switch {
	case lost:
		return fmt.Errorf("%w: %v", errWorkerLost, err)
	case api == nil:
		return err
	case api.Status == http.StatusNotFound:
		return errSessionNotFound
	case api.Status == http.StatusRequestEntityTooLarge:
		return errSessionFull
	}
	return err
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
