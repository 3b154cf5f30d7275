package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elsa"
	"elsa/internal/serve/cluster"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// Config tunes the serving subsystem. Zero values select production-safe
// defaults.
type Config struct {
	// BatchWindow is ignored: an op dispatches at once to an idle lane,
	// and ops batch only while every lane is busy.
	//
	// Deprecated: ignored.
	BatchWindow time.Duration
	// MaxBatch bounds how many queued ops one lane harvests into a batch
	// (default 64).
	MaxBatch int
	// MaxQueue bounds requests resident in the dispatcher; beyond it
	// submissions fail with ErrQueueFull / HTTP 429 (default 256).
	MaxQueue int
	// Workers is the AttendBatch worker count per dispatched batch
	// (default: GOMAXPROCS via elsa).
	Workers int
	// RequestTimeout bounds one request's queue + compute time
	// (default 30s).
	RequestTimeout time.Duration

	// Replicas is how many local dispatch lanes each pooled configuration
	// runs — micro-batches for one configuration spread across this many
	// lanes, all sharing the configuration's one engine, the software
	// analogue of the paper's replicated accelerator modules (default 2;
	// default 0 when WorkerAddrs is set, making the server a pure
	// dispatch frontend). Negative means explicitly zero — a
	// dispatch-only frontend even before any worker has joined. The
	// engine is built even at zero lanes, for calibration and session
	// shadows; decode needs a local lane, so a session on such a server
	// lives on a worker.
	Replicas int
	// MaxEngines bounds resident replica sets; beyond it the
	// least-recently-used configuration is evicted (default 8).
	MaxEngines int

	// MaxSessions bounds live decode sessions; at capacity the
	// least-recently-used session is evicted (default 1024).
	MaxSessions int
	// SessionTTL evicts sessions idle for longer than this (default 15m;
	// negative disables expiry).
	SessionTTL time.Duration
	// MaxSessionTokens bounds one session's appended prefix (default 65536).
	MaxSessionTokens int
	// ExactBackend selects the server-wide default exact backend
	// (elsa.BackendScores or elsa.BackendLinearScan) applied to exact
	// operating points (p = 0, no pinned threshold) whose request leaves
	// the backend unspecified; per-request and per-session selectors
	// still win. Empty keeps the default exact pipeline. An unknown name
	// is ignored (New cannot fail), so callers should validate with
	// elsa.ValidBackend first — elsaserve's -exact-backend flag does.
	ExactBackend string

	// StateDir, when set, persists calibrated thresholds so a restarted
	// server serves its first calibrated request without re-running
	// Calibrate, and holds spilled session state when SessionSpill is
	// enabled. Empty keeps all state in memory only.
	StateDir string
	// MaxThresholdFiles caps how many calibrated-threshold files StateDir
	// retains; beyond it the least-recently-used files (by mtime, which
	// loads refresh) are removed (default 512; negative = unbounded).
	MaxThresholdFiles int
	// SessionSpill, when positive, pages locally-hosted sessions idle
	// longer than this out of memory into StateDir; the next op on the
	// session rehydrates it transparently. Requires StateDir; 0 disables
	// spilling (the default).
	SessionSpill time.Duration
	// ColdWatermark bounds each session stream's resident f32 hot tail:
	// once the hot region reaches twice this many tokens the oldest half
	// demotes to the bit-packed cold representation in one chunk. 0 keeps
	// whole streams hot (the default, exact-attention behavior).
	ColdWatermark int

	// QuotaRPS is each client's sustained admission rate in ops/second,
	// keyed by the envelope's client_id (or X-Elsa-Client). 0 disables
	// per-client quotas (the default).
	QuotaRPS float64
	// QuotaBurst is each client's token-bucket burst capacity
	// (default max(1, QuotaRPS)).
	QuotaBurst float64
	// ClassWeights are the dispatcher's weighted-dequeue shares for
	// interactive, batch, and background traffic (default 16:4:1; the
	// zero value selects the default).
	ClassWeights [NumClasses]int

	// WorkerAddrs lists remote elsaserve workers ("host:port" or full
	// URLs) this server dispatches to alongside its local lanes. Empty
	// (the default) keeps serving purely in-process.
	WorkerAddrs []string
	// WorkerProbeInterval is how often each worker's /v1/healthz is
	// probed (default 5s).
	WorkerProbeInterval time.Duration
	// WorkerInFlight caps concurrent ops on the wire per worker
	// (default 32).
	WorkerInFlight int
	// WorkerFailLimit ejects a worker from routing after this many
	// consecutive probe/dispatch failures; a successful probe re-admits
	// it (default 3).
	WorkerFailLimit int
	// DispatchRetries is how many times one op is re-executed on a
	// sibling shard after a retryable worker failure (default 2).
	DispatchRetries int

	// DrainTimeout bounds how long a draining server waits for its pinned
	// sessions to finish before force-expiring the rest (default 60s;
	// negative waits indefinitely).
	DrainTimeout time.Duration
}

func (c *Config) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Replicas < 0 {
		// Explicitly zero: a dispatch-only frontend, even with no static
		// workers configured (the elastic case — the fleet arrives by
		// joining later).
		c.Replicas = 0
	} else if c.Replicas == 0 {
		if len(c.WorkerAddrs) > 0 {
			// A fleet frontend defaults to dispatch-only: remote workers
			// carry the compute, local engines exist for calibration and
			// sessions. Serving locally too takes an explicit Replicas.
			c.Replicas = 0
		} else {
			c.Replicas = 2
		}
	}
	if c.MaxEngines <= 0 {
		c.MaxEngines = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessionTokens <= 0 {
		c.MaxSessionTokens = 65536
	}
	if c.WorkerProbeInterval <= 0 {
		c.WorkerProbeInterval = 5 * time.Second
	}
	if c.WorkerInFlight <= 0 {
		c.WorkerInFlight = 32
	}
	if c.WorkerFailLimit <= 0 {
		c.WorkerFailLimit = 3
	}
	if c.DispatchRetries <= 0 {
		c.DispatchRetries = 2
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = time.Minute
	}
	if c.MaxThresholdFiles == 0 {
		c.MaxThresholdFiles = 512
	} else if c.MaxThresholdFiles < 0 {
		c.MaxThresholdFiles = 0 // unbounded
	}
	if c.ColdWatermark < 0 {
		c.ColdWatermark = 0
	}
	if !elsa.ValidBackend(c.ExactBackend) {
		c.ExactBackend = elsa.BackendAuto
	}
}

// Server is the attention-serving subsystem: an http.Handler exposing
// one-shot batched attention (POST /v1/attend), autoregressive decode
// sessions (POST /v1/sessions and friends), health, and metrics over a
// shared replica pool, shard-aware dispatcher, and threshold registry.
type Server struct {
	cfg        Config
	pool       *enginePool
	disp       *dispatcher
	fleet      *workerSet
	cluster    *clusterView
	thresholds *thresholdRegistry
	sessions   *sessionRegistry
	quotas     *quotas
	metrics    *Metrics
	mux        *http.ServeMux

	// draining flips once on the first POST /v1/drain: existing sessions
	// keep flowing, new ones are refused, healthz reports "draining".
	draining atomic.Bool
	stopc    chan struct{} // closed by Close; ends the drain watcher
	bg       sync.WaitGroup
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg.setDefaults()
	m := NewMetrics()
	disp := newDispatcher(cfg.MaxBatch, cfg.MaxQueue, cfg.Workers,
		cfg.DispatchRetries, cfg.WorkerProbeInterval, classWeights(cfg.ClassWeights), m)
	fleet := newWorkerSet(cfg.WorkerAddrs, cfg.WorkerProbeInterval, cfg.WorkerInFlight, cfg.WorkerFailLimit, m)
	thr := newThresholdRegistry(cfg.StateDir, cfg.MaxThresholdFiles, m)
	pool := newEnginePool(cfg.Replicas, cfg.MaxEngines, disp, fleet, m)
	table := cluster.NewTable()
	table.Seed(seedAddrs(cfg.WorkerAddrs))
	cv := newClusterView(table, fleet, pool, cfg.Replicas, cfg.WorkerProbeInterval, m)
	fleet.onProbe = cv.onProbe
	sessions := newSessionRegistry(cfg.MaxSessions, cfg.MaxSessionTokens, cfg.SessionTTL, thr, m)
	sessions.place = cv.place
	sessions.disp = disp
	sessions.coldWatermark = cfg.ColdWatermark
	if cfg.SessionSpill > 0 && cfg.StateDir != "" {
		sessions.spillAfter = cfg.SessionSpill
		sessions.stateDir = cfg.StateDir
	}
	s := &Server{
		cfg:        cfg,
		pool:       pool,
		disp:       disp,
		fleet:      fleet,
		cluster:    cv,
		thresholds: thr,
		sessions:   sessions,
		quotas:     newQuotas(cfg.QuotaRPS, cfg.QuotaBurst),
		metrics:    m,
		mux:        http.NewServeMux(),
		stopc:      make(chan struct{}),
	}
	fleet.start()
	cv.start()
	if sessions.spillAfter > 0 {
		s.bg.Add(1)
		go s.spillLoop()
	}
	s.mux.HandleFunc("POST /v1/attend", s.handleAttend)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/append", s.handleSessionAppend)
	s.mux.HandleFunc("POST /v1/sessions/{id}/query", s.handleSessionQuery)
	s.mux.HandleFunc("POST /v1/sessions/{id}/export", s.handleSessionExport)
	s.mux.HandleFunc("POST /v1/sessions/import", s.handleSessionImport)
	s.mux.HandleFunc("POST /v1/sessions/step", s.handleSessionStep)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterList)
	s.mux.HandleFunc("POST /v1/cluster/drain", s.handleClusterDrain)
	s.mux.HandleFunc("POST /v1/cluster/rebalance", s.handleClusterRebalance)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// seedAddrs normalizes the static -workers list the same way the fleet
// does, so the membership table and worker map key identically.
func seedAddrs(addrs []string) []string {
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, normalizeWorkerAddr(a))
		}
	}
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the server's metric registry (used by tests and the
// command's logging).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close drains the serving stack in dependency order: the sweep loop and
// drain watcher stop, the health-probe loops stop (no worker flips state
// mid-drain), the dispatcher stops admission and flushes every pending
// micro-batch, the pool closes all shard queues (live and retired) once
// nothing can be enqueued again, and the shard loops are joined. Call
// after http.Server.Shutdown so no handler is left waiting.
func (s *Server) Close() {
	close(s.stopc)
	s.bg.Wait()
	s.cluster.close()
	s.fleet.close()
	s.disp.close()
	s.pool.closeShards()
	s.disp.waitShards()
}

// Draining reports whether this server has been asked to drain.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := wire.HealthResponse{
		Status:   "ok",
		Engines:  s.pool.size(),
		Sessions: s.sessions.active(),
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	if n := s.fleet.size(); n > 0 {
		h.Role = "frontend"
		h.Workers = n
		h.HealthyWorkers = s.fleet.healthyCount()
		counts := s.cluster.table.Counts()
		h.Members = counts[cluster.StateJoining] + counts[cluster.StateActive] + counts[cluster.StateDraining]
		h.Draining = counts[cluster.StateDraining]
		h.DecodeCoalesced = s.metrics.DecodeCoalesced()
		h.DecodeMeanBatch = s.metrics.MeanDecodeBatchSize()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.metrics.engines.set(int64(s.pool.size()))
	s.metrics.quotaClients.set(int64(s.quotas.clients()))
	s.metrics.sessions.set(int64(s.sessions.active()))
	if s.fleet.size() > 0 {
		version, members := s.cluster.table.Snapshot()
		states := make(map[string]int64, 4)
		for _, m := range members {
			states[m.State.String()]++
		}
		s.metrics.clusterMembers.replace(states)
		s.metrics.clusterVersion.set(int64(version))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w) //nolint:errcheck // best effort: client gone mid-scrape
}

func (s *Server) handleAttend(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code, reason, class := s.attend(w, r)
	if reason != "" {
		s.metrics.rejected.with(reason).add(1)
	}
	seconds := time.Since(start).Seconds()
	s.metrics.requests.with(strconv.Itoa(code)).add(1)
	s.metrics.latency.observe(seconds)
	s.metrics.classLatency.with(class.String()).observe(seconds)
}

// attend runs one request end to end and returns the HTTP status it
// answered with, a rejection reason ("" when the op was served), and the
// request's priority class.
//
// The handler owns the pooled buffers the op's rows decoded into and
// releases them when it returns, unless the op may still be queued or
// running when it does (see dispatcher.submit): those go to the GC.
func (s *Server) attend(w http.ResponseWriter, r *http.Request) (int, string, Class) {
	var req wire.AttendRequest
	var bufs rowBuffers
	defer bufs.release()
	meta, packed, ok := decodeAttend(w, r, maxBodyBytes, &req, &bufs)
	if !ok {
		return http.StatusBadRequest, "bad_request", meta.class
	}
	opts := attendEngineOptions(&req)
	if err := checkEngineSize(opts); err != nil {
		return fail(w, http.StatusBadRequest, err.Error()), "bad_request", meta.class
	}
	if err := s.admit(nil, meta.clientID); err != nil {
		code, reason := s.failErr(w, err, http.StatusTooManyRequests)
		return code, reason, meta.class
	}

	set, err := s.pool.get(opts)
	if err != nil {
		return fail(w, http.StatusBadRequest, "engine: "+err.Error()), "bad_request", meta.class
	}
	ov := attendOverrides(&req)
	ov.Backend = s.exactBackend(ov.Backend, ov.P, ov.Thr != nil)
	var thr elsa.Threshold
	if ov.Thr != nil {
		thr = *ov.Thr
	} else if thr, err = s.thresholds.get(opts, ov.P, func() (elsa.Threshold, error) {
		return set.engine.Calibrate(ov.P, []elsa.Sample{{Q: req.Q, K: req.K}})
	}); err != nil {
		return fail(w, http.StatusBadRequest, "calibrate: "+err.Error()), "bad_request", meta.class
	}

	ctx, cancel, deadline := s.budget(r, meta)
	defer cancel()
	res, done := s.disp.submit(ctx, set, elsa.BatchOp{Q: req.Q, K: req.K, V: req.V,
		Overrides: elsa.Overrides{Backend: ov.Backend}}, thr, meta.class, deadline)
	if !done {
		bufs.forget()
	}
	if err := res.err; err != nil {
		code, reason := s.failErr(w, err, http.StatusInternalServerError)
		if reason == "deadline" {
			s.metrics.admission.with("shed_deadline").add(1)
		}
		return code, reason, meta.class
	}
	s.metrics.admission.with("admitted").add(1)

	out := res.out
	resp := wire.AttendResponse{
		CandidateFraction: out.CandidateFraction,
		FallbackQueries:   out.FallbackQueries,
		Threshold:         thr,
		BatchSize:         res.batchSize,
	}
	if packed {
		resp.ContextPacked = client.PackRows(out.Context)
	} else {
		resp.Context = out.Context
	}
	return writeJSON(w, http.StatusOK, resp), "", meta.class
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req wire.SessionCreateRequest
	meta, ok := decodeEnvelope(w, r, maxBodyBytes, &req)
	if !ok {
		return
	}
	opts := elsa.Options{HeadDim: req.HeadDim, HashBits: req.HashBits, Seed: req.Seed, Quantized: req.Quantized}
	set, opts, ok := s.sessionSet(w, meta.clientID, nil, opts, req.P, req.T, req.Backend)
	if !ok {
		return
	}
	// Exact sessions that pinned nothing themselves get the server-wide
	// default backend, the same rule as one-shot attend.
	backend := s.exactBackend(req.Backend, req.P, req.T != nil)
	sess, err := s.sessions.create(r.Context(), set, opts, req.P, req.T, backend, req.Capacity, meta)
	if err != nil {
		s.failErr(w, err, http.StatusInternalServerError)
		return
	}
	resp := wire.SessionCreateResponse{ID: sess.id}
	if sess.calibrated {
		thr := sess.thr
		resp.Threshold = &thr
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	var req wire.SessionAppendRequest
	if !decodeAppend(w, r, maxBodyBytes, &req) {
		return
	}
	if s.chargeSessionQuota(w, r.PathValue("id")) != nil {
		return
	}
	keys, values, err := appendRows(&req)
	if err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return
	}
	n, err := s.sessions.append(r.Context(), r.PathValue("id"), keys, values)
	if err != nil {
		s.failErr(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, wire.SessionAppendResponse{Len: n})
}

func (s *Server) handleSessionQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.SessionQueryRequest
	meta, ok := decodeEnvelope(w, r, maxBodyBytes, &req)
	if !ok {
		return
	}
	if len(req.Q) == 0 {
		fail(w, http.StatusBadRequest, "q must be non-empty")
		return
	}
	if s.chargeSessionQuota(w, r.PathValue("id")) != nil {
		return
	}
	if err := checkOperatingPoint(0, req.T, req.Backend); err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel, deadline := s.budget(r, meta)
	defer cancel()
	out, stats, n, thr, batchSize, err := s.sessions.queryInto(ctx, r.PathValue("id"), nil, req.Q, queryOverrides(req.T, req.Backend), deadline)
	if err != nil {
		s.failErr(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, wire.SessionQueryResponse{
		Context:    out,
		Candidates: stats.Candidates,
		Fallback:   stats.Fallback,
		Len:        n,
		Threshold:  thr,
		BatchSize:  batchSize,
	})
}

// handleSessionStep decodes one token for many sessions in a single
// request. The whole wave is handed to the session registry's step,
// which queues every entry in its replica set's decode class queue
// before it kicks the set once — so the wave (together with any other
// in-flight decode traffic) coalesces into shared dispatches with no
// goroutine per query. Results come back per entry, with per-entry
// errors so one evicted session cannot fail the rest of the wave. This
// is the interface a model runner stepping N sequences uses: one HTTP
// round trip per decode wave instead of one per token.
func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	var req wire.SessionStepRequest
	meta, ok := decodeEnvelope(w, r, maxBodyBytes, &req)
	if !ok {
		return
	}
	if err := unpackStep(&req); err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel, deadline := s.budget(r, meta)
	defer cancel()

	entries := make([]stepEntry, len(req.Queries))
	for i := range req.Queries {
		q, e := &req.Queries[i], &entries[i]
		e.ID, e.Q, e.Ov = q.ID, q.Q, queryOverrides(q.T, q.Backend)
		e.Err = checkOperatingPoint(0, q.T, q.Backend)
		// Quota is charged per query against each session's creator, the
		// same accounting as per-query decode; a shed entry fails alone.
		if err := s.chargeSessionQuota(nil, q.ID); err != nil {
			e.Err = err
		}
	}
	s.sessions.step(ctx, entries, deadline)

	results := make([]wire.SessionStepResult, len(entries))
	for i := range entries {
		e := &entries[i]
		if e.Err != nil {
			results[i].Error = e.Err.Error()
			continue
		}
		results[i].SessionQueryResponse = wire.SessionQueryResponse{
			Candidates: e.Stats.Candidates,
			Fallback:   e.Stats.Fallback,
			Len:        e.Len,
			Threshold:  e.Thr,
			BatchSize:  e.BatchSize,
		}
		if req.Packed {
			results[i].ContextPacked = client.PackVec(e.Out)
		} else {
			results[i].Context = e.Out
		}
	}
	writeJSON(w, http.StatusOK, wire.SessionStepResponse{Results: results})
}

// handleSessionExport serializes a session's portable state: the stream
// blob plus engine configuration and operating point — everything the
// import endpoint needs to adopt it bit-identically elsewhere.
func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	if s.chargeSessionQuota(w, r.PathValue("id")) != nil {
		return
	}
	resp, err := s.sessions.export(r.Context(), r.PathValue("id"))
	if err != nil {
		s.failErr(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionImport adopts an exported session under its original ID —
// the receiving half of live migration. The state blob carries its own
// format version and an engine-config fingerprint, so a mismatched
// import fails loudly instead of decoding garbage.
func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	var req wire.SessionImportRequest
	meta, ok := decodeEnvelope(w, r, maxBodyBytes, &req)
	if !ok {
		return
	}
	var invalid error
	if strings.TrimSpace(req.ID) == "" {
		invalid = errors.New("id is required")
	} else if len(req.State) == 0 {
		invalid = errors.New("state is required")
	}
	opts := elsa.Options{HeadDim: req.HeadDim, HashBits: req.HashBits, Seed: req.Seed, Quantized: req.Quantized}
	set, opts, ok := s.sessionSet(w, meta.clientID, invalid, opts, req.P, nil, req.Backend)
	if !ok {
		return
	}
	n, err := s.sessions.adopt(set, opts, req.ID, req.State, req.P, req.Threshold, req.Backend, req.Capacity, meta)
	if err != nil {
		s.failErr(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, wire.SessionImportResponse{ID: req.ID, Len: n})
}

// spillLoop periodically pages idle sessions out to the state dir.
func (s *Server) spillLoop() {
	defer s.bg.Done()
	// Sweep a few times per idle threshold so a session spills soon after
	// crossing it, without busy-scanning the registry.
	interval := s.sessions.spillAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-tick.C:
			s.sessions.spillIdle()
		}
	}
}

// handleClusterJoin admits or refreshes a fleet member: workers POST
// here to register (and then keep heartbeating through the same
// endpoint). The worker starts receiving one-shot traffic after its
// first successful probe and session placements once active on the ring
// — no frontend restart involved.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req wire.JoinRequest
	if _, ok := decodeEnvelope(w, r, maxBodyBytes, &req); !ok {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		fail(w, http.StatusBadRequest, "addr is required")
		return
	}
	if req.Weight < 0 || req.HeartbeatMS < 0 {
		fail(w, http.StatusBadRequest, "weight and heartbeat_ms must be >= 0")
		return
	}
	if req.HeartbeatMS > maxHeartbeatMS {
		fail(w, http.StatusBadRequest, fmt.Sprintf("heartbeat_ms must be <= %d", maxHeartbeatMS))
		return
	}
	if req.Weight > MaxWeight {
		fail(w, http.StatusBadRequest, fmt.Sprintf("weight must be <= %d", MaxWeight))
		return
	}
	addr := normalizeWorkerAddr(strings.TrimSpace(req.Addr))
	interval := time.Duration(req.HeartbeatMS) * time.Millisecond
	capacity := cluster.Capacity{Weight: req.Weight, MaxSessions: req.MaxSessions}
	state, version, changed := s.cluster.join(addr, capacity, interval, req.Draining, req.Incarnation)
	if changed {
		s.metrics.clusterJoins.add(1)
	} else {
		s.metrics.clusterHeartbeats.add(1)
	}
	counts := s.cluster.table.Counts()
	writeJSON(w, http.StatusOK, wire.JoinResponse{
		State:   state.String(),
		Members: counts[cluster.StateJoining] + counts[cluster.StateActive] + counts[cluster.StateDraining],
		Version: version,
	})
}

// handleClusterList serves the versioned cluster view: the `signals`
// block (windowed load signals an autoscale controller acts on) and the
// `targets` block (per-member placement state, including how many
// sessions this frontend still holds pinned to each — the number an
// operator watches reach zero during a drain).
func (s *Server) handleClusterList(w http.ResponseWriter, _ *http.Request) {
	version, members := s.cluster.table.Snapshot()
	pinned := s.sessions.pinnedCounts()
	now := time.Now()
	resp := wire.ClusterResponse{
		SchemaVersion: wire.ClusterSchemaVersion,
		Version:       version,
		Members:       make([]wire.ClusterTarget, 0, len(members)),
	}
	for _, m := range members {
		age := int64(-1)
		if !m.LastHeartbeat.IsZero() {
			age = now.Sub(m.LastHeartbeat).Milliseconds()
		}
		resp.Members = append(resp.Members, wire.ClusterTarget{
			Addr:           m.Addr,
			State:          m.State.String(),
			Static:         m.Static,
			Weight:         m.Weight,
			MaxSessions:    m.MaxSessions,
			HeartbeatAgeMS: age,
			PinnedSessions: pinned[m.Addr],
		})
	}
	sort.Slice(resp.Members, func(i, j int) bool { return resp.Members[i].Addr < resp.Members[j].Addr })
	depths := s.metrics.QueueDepthsByClass()
	var total int64
	for _, n := range depths {
		total += n
	}
	resp.Signals = wire.ClusterSignals{
		QueueDepth:        total,
		QueueDepthByClass: depths,
		ShedRateByClass:   s.metrics.ShedRates(),
		ShedsByClass:      s.metrics.ShedsByClass(),
		MeanBatch:         s.metrics.MeanBatchSize(),
		MeanDecodeBatch:   s.metrics.MeanDecodeBatchSize(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterRebalance proactively migrates pinned sessions toward one
// member — the scale-out complement of drain. Sessions whose consistent-
// hash placement now prefers the target (typically because it just
// joined the ring) are live-migrated onto it through the same
// export/import path drain uses; sessions the ring still places
// elsewhere stay put, so repeated rebalances converge instead of
// thrashing.
func (s *Server) handleClusterRebalance(w http.ResponseWriter, r *http.Request) {
	var req wire.ClusterRebalanceRequest
	if _, ok := decodeEnvelope(w, r, maxBodyBytes, &req); !ok {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		fail(w, http.StatusBadRequest, "addr is required")
		return
	}
	addr := normalizeWorkerAddr(strings.TrimSpace(req.Addr))
	m, ok := s.cluster.table.Get(addr)
	if !ok {
		fail(w, http.StatusNotFound, "unknown member: "+addr)
		return
	}
	if m.State != cluster.StateActive {
		fail(w, http.StatusConflict, "member is "+m.State.String()+", not an active rebalance target")
		return
	}
	moved := s.sessions.rebalance(r.Context(), addr, req.Max)
	writeJSON(w, http.StatusOK, wire.ClusterRebalanceResponse{
		Addr:           addr,
		Moved:          moved,
		PinnedSessions: s.sessions.pinnedCounts()[addr],
	})
}

// handleClusterDrain starts a rolling-upgrade drain of one member: it
// leaves the ring immediately (no new sessions, no new one-shot
// routing), sessions still pinned to it are live-migrated onto other
// members right away instead of being waited out, and the drain signal
// is forwarded to the worker's own /v1/drain. A member holding zero
// pinned sessions completes immediately — the forward happens in the
// background so the reply never waits on an unreachable worker.
func (s *Server) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	var req wire.ClusterDrainRequest
	if _, ok := decodeEnvelope(w, r, maxBodyBytes, &req); !ok {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		fail(w, http.StatusBadRequest, "addr is required")
		return
	}
	addr := normalizeWorkerAddr(strings.TrimSpace(req.Addr))
	if _, ok := s.cluster.table.Get(addr); !ok {
		fail(w, http.StatusNotFound, "unknown member: "+addr)
		return
	}
	s.cluster.markDraining(addr)
	pinned := s.sessions.pinnedCounts()[addr]
	relocated := 0
	forwarded := false
	wk := s.fleet.get(addr)
	if pinned > 0 {
		relocated = s.sessions.relocate(r.Context(), addr)
		if wk != nil {
			ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
			defer cancel()
			if _, err := wk.cli.Drain(ctx); err == nil {
				forwarded = true
			}
		}
	} else if wk != nil {
		// Nothing to relocate: reply now and forward the drain signal
		// off-request. The goroutine shares nothing mutable (wk.cli is
		// immutable) and self-terminates on its own timeout, so it is not
		// tracked by s.bg.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			wk.cli.Drain(ctx) //nolint:errcheck // best effort; frontend drain holds regardless
		}()
	}
	writeJSON(w, http.StatusOK, wire.ClusterDrainResponse{
		Addr:           addr,
		State:          cluster.StateDraining.String(),
		Forwarded:      forwarded,
		PinnedSessions: pinned,
		Relocated:      relocated,
	})
}

// handleDrain puts this server into drain mode: new sessions are
// refused with 503 + Retry-After, existing sessions (and the one-shot
// path serving them) continue, healthz flips to "draining", and after
// DrainTimeout any sessions still alive are force-expired. Idempotent —
// re-POSTing reports progress.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	if !s.draining.Swap(true) {
		s.bg.Add(1)
		go s.drainWatch()
	}
	writeJSON(w, http.StatusOK, wire.DrainResponse{Draining: true, Sessions: s.sessions.active()})
}

// drainWatch waits for the drain to complete: all sessions gone, the
// timeout force-expiring the stragglers, or server shutdown.
func (s *Server) drainWatch() {
	defer s.bg.Done()
	var deadline <-chan time.Time
	if s.cfg.DrainTimeout > 0 {
		t := time.NewTimer(s.cfg.DrainTimeout)
		defer t.Stop()
		deadline = t.C
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-deadline:
			s.sessions.evictAll("drain")
			return
		case <-tick.C:
			if s.sessions.active() == 0 {
				return
			}
		}
	}
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.remove(r.PathValue("id")); err != nil {
		s.failErr(w, err, http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sessionSet checks a created or imported session's configuration and
// resolves its replica set, answering every refusal itself: 503 while
// draining; 400 for the caller's own invalid (when non-nil), head_dim,
// hash_bits, p and backend; 429 past the creator's quota; 400 when no
// engine builds.
func (s *Server) sessionSet(w http.ResponseWriter, clientID string, invalid error, opts elsa.Options, p float64, t *float64, backend string) (*replicaSet, elsa.Options, bool) {
	if s.draining.Load() {
		s.failErr(w, errDraining, http.StatusServiceUnavailable)
		return nil, opts, false
	}
	if invalid == nil && opts.HeadDim <= 0 {
		invalid = errors.New("head_dim must be > 0")
	}
	if invalid == nil {
		invalid = checkEngineSize(opts)
	}
	if invalid == nil {
		invalid = checkOperatingPoint(p, t, backend)
	}
	if invalid != nil {
		fail(w, http.StatusBadRequest, invalid.Error())
		return nil, opts, false
	}
	if s.admit(w, clientID) != nil {
		return nil, opts, false
	}
	opts = normalizeOptions(opts, opts.HeadDim)
	set, err := s.pool.get(opts)
	if err != nil {
		fail(w, http.StatusBadRequest, "engine: "+err.Error())
		return nil, opts, false
	}
	return set, opts, true
}

// exactBackend is the exact backend an op or session runs: its own
// selector, or the server-wide default for an exact one (p = 0) that
// pinned no threshold. An explicit t stays on the filter pipeline and an
// approximate p can never ride an exact backend.
func (s *Server) exactBackend(backend string, p float64, pinned bool) string {
	if backend == elsa.BackendAuto && p == 0 && !pinned {
		return s.cfg.ExactBackend
	}
	return backend
}

// budget bounds one request's queue + compute time: the request timeout,
// cut to the envelope's deadline when that is shorter. An envelope
// deadline also comes back as the absolute deadline (zero = none) that
// arms the dispatcher's deadline shedding.
func (s *Server) budget(r *http.Request, meta requestMeta) (context.Context, context.CancelFunc, time.Time) {
	timeout := s.cfg.RequestTimeout
	var deadline time.Time
	if meta.deadline > 0 {
		timeout = min(timeout, meta.deadline)
		deadline = time.Now().Add(meta.deadline)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, deadline
}

// errQuota refuses an op whose client has spent its quota.
var errQuota = errors.New("client quota exhausted")

// admit charges one op against clientID's quota. A shed op counts as
// shed_quota and gets errQuota, carrying the bucket's refill time as its
// Retry-After; admit answers it on w itself unless w is nil (a step
// entry, whose error rides in its result).
func (s *Server) admit(w http.ResponseWriter, clientID string) error {
	admitted, wait := s.quotas.take(clientID)
	if admitted {
		return nil
	}
	s.metrics.admission.with("shed_quota").add(1)
	err := &shedError{sentinel: errQuota, retryAfter: wait}
	if w != nil {
		s.failErr(w, err, http.StatusTooManyRequests)
	}
	return err
}

// chargeSessionQuota admits one op on session id against the quota of
// the client that created it — sessions inherit their creator's class
// and count against its budget, so a flood of decode steps cannot bypass
// the per-client gate. An unknown session is not charged; the handler's
// own lookup answers 404.
func (s *Server) chargeSessionQuota(w http.ResponseWriter, id string) error {
	if s.quotas == nil {
		return nil
	}
	clientID, _, err := s.sessions.meta(id)
	if err != nil {
		return nil
	}
	return s.admit(w, clientID)
}

// refusal is one row of the refusal table: the status an error earns,
// the label attend counts it under in rejected{reason}, whether it
// carries Retry-After, and the text that replaces the error's own when
// set.
type refusal struct {
	err    error
	status int
	reason string
	retry  bool
	text   string
}

// refusals is the refusal table every handler answers errors by
// (DESIGN.md §8). A shed op's Retry-After is its own hint — the estimated queue
// wait, the quota refill or one probe interval for ErrNoWorkers — and a
// session that cannot be placed or kept waits one probe interval.
var refusals = [...]refusal{
	{ErrQueueFull, http.StatusTooManyRequests, "queue_full", true, ""},
	{ErrDeadline, http.StatusTooManyRequests, "deadline", true, ""},
	{errQuota, http.StatusTooManyRequests, "quota", true, ""},
	{ErrNoWorkers, http.StatusServiceUnavailable, "no_workers", true, ""},
	{ErrClosed, http.StatusServiceUnavailable, "closed", false, ""},
	{errWorkerLost, http.StatusServiceUnavailable, "", true, ""},
	{errDraining, http.StatusServiceUnavailable, "", true, ""},
	{errSessionNotFound, http.StatusNotFound, "", false, ""},
	{errSessionFull, http.StatusRequestEntityTooLarge, "", false, ""},
	{errSessionExists, http.StatusConflict, "", false, ""},
	{errNotExportable, http.StatusConflict, "", false, ""},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout", false, "request timed out"},
	// The client went away; nobody reads the body, but account for it.
	{context.Canceled, http.StatusRequestTimeout, "canceled", false, "request canceled"},
}

// failErr answers err by the refusal table, or with the fallback status
// (400 or 500) and the error's text when no row matches. It returns the
// status and the rejected{reason} label: "bad_request" or "internal"
// for a fallback.
func (s *Server) failErr(w http.ResponseWriter, err error, fallback int) (int, string) {
	for _, r := range refusals {
		if !errors.Is(err, r.err) {
			continue
		}
		if r.retry {
			wait := s.cfg.WorkerProbeInterval
			var se *shedError
			if errors.As(err, &se) {
				wait = se.retryAfter
			}
			setRetryAfter(w, wait)
		}
		msg := r.text
		if msg == "" {
			msg = err.Error()
		}
		return fail(w, r.status, msg), r.reason
	}
	if fallback == http.StatusBadRequest {
		return fail(w, fallback, err.Error()), "bad_request"
	}
	return fail(w, fallback, err.Error()), "internal"
}

// setRetryAfter surfaces a shed op's backoff hint in whole seconds
// (minimum 1 — Retry-After has no sub-second form).
func setRetryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func fail(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, wire.Error{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-write
	return code
}
