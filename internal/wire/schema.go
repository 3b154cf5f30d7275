package wire

import "elsa"

// The v1 schema: every request and reply body of the serving API,
// declared once for the server (internal/serve) and the Go client
// (serve/client). Each body carries the field order and tags of the side
// that writes it, so a body marshals to the same bytes on either side;
// testdata/wire in internal/serve pins them. A threshold travels as
// elsa.Threshold itself.

// Envelope is the versioned v1 request envelope shared by every POST
// endpoint: admission metadata (who is asking, at what priority, with how
// much latency budget) wraps the op payload in `op`. A body without an
// `op` key answers 400 with a hint to wrap it. The client writes it with
// Op holding the op struct; the server reads it with Op a pointer to the
// endpoint's payload, so the op decodes in the same pass as the
// metadata, and a missing or null op leaves Op nil.
type Envelope[T any] struct {
	// ClientID keys the per-client quota bucket. Empty means anonymous;
	// all anonymous requests share one bucket, so naming yourself is how
	// a client gets its own quota. The X-Elsa-Client header is the
	// fallback carrier for clients that cannot change their body format.
	ClientID string `json:"client_id,omitempty"`
	// Priority is the op's class: interactive (default), batch, or
	// background. X-Elsa-Priority is the header fallback.
	Priority string `json:"priority,omitempty"`
	// DeadlineMS is the client's remaining latency budget. An op whose
	// budget cannot cover the estimated queue wait is shed immediately
	// with Retry-After instead of timing out in queue. 0 means no
	// deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Op is the endpoint's payload (AttendRequest, SessionCreateRequest,
	// ...).
	Op T `json:"op"`
}

// AttendRequest is the POST /v1/attend body: one self-attention op plus
// the engine configuration it should run under. Omitted engine fields take
// the library defaults; an omitted head_dim is inferred from the query
// width so small hand-written payloads work out of the box.
type AttendRequest struct {
	Q [][]float32 `json:"q,omitempty"`
	K [][]float32 `json:"k,omitempty"`
	V [][]float32 `json:"v,omitempty"`
	// QP, KP and VP carry Q, K and V packed instead: one AppendRow
	// string per row. Each matrix arrives either plain or packed, never
	// both. Packed queries get their reply as ContextPacked: packed in,
	// packed out.
	QP []string `json:"qp,omitempty"`
	KP []string `json:"kp,omitempty"`
	VP []string `json:"vp,omitempty"`

	// P is the degree of approximation (0 = exact attention). When T is
	// absent the server calibrates a threshold for this p once per engine
	// and reuses it.
	P float64 `json:"p,omitempty"`
	// T, when present, is an explicit pre-calibrated threshold (e.g. from
	// elsacalib / SaveThreshold) and skips server-side calibration.
	T *float64 `json:"t,omitempty"`

	HeadDim   int   `json:"head_dim,omitempty"`
	HashBits  int   `json:"hash_bits,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Quantized bool  `json:"quantized,omitempty"`

	// Backend selects the exact implementation for an exact op ("scores"
	// or "linear-scan"); empty defers to the server's -exact-backend
	// default. Rejected with 400 when combined with p > 0.
	Backend string `json:"backend,omitempty"`
}

// AttendResponse is the POST /v1/attend reply.
type AttendResponse struct {
	// Context is the attention output, one row per query, for a request
	// whose queries arrived plain.
	Context [][]float32 `json:"context,omitempty"`
	// ContextPacked replaces Context, one AppendRow string per row, for
	// a request whose queries arrived packed (qp).
	ContextPacked []string `json:"context_packed,omitempty"`
	// CandidateFraction is the mean fraction of keys admitted by the
	// filter per query.
	CandidateFraction float64 `json:"candidate_fraction"`
	// FallbackQueries counts queries whose filter selected nothing.
	FallbackQueries int `json:"fallback_queries"`
	// Threshold echoes the operating point the op actually ran with.
	Threshold elsa.Threshold `json:"threshold"`
	// BatchSize is how many concurrent ops shared this op's dispatched
	// micro-batch.
	BatchSize int `json:"batch_size"`
}

// SessionCreateRequest is the POST /v1/sessions body: the engine
// configuration and operating point an autoregressive decode session runs
// under. head_dim is required here (there is no payload to infer it from).
type SessionCreateRequest struct {
	HeadDim   int   `json:"head_dim"`
	HashBits  int   `json:"hash_bits,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Quantized bool  `json:"quantized,omitempty"`

	// P is the degree of approximation (0 = exact attention). With no
	// explicit T, the threshold resolves from the server's registry (memory
	// or state dir) or — failing that — is calibrated lazily on the
	// session's first query, over the prefix appended so far.
	P float64 `json:"p,omitempty"`
	// T, when present, is an explicit pre-calibrated threshold.
	T *float64 `json:"t,omitempty"`
	// Capacity preallocates stream storage for this many tokens (optional).
	Capacity int `json:"capacity,omitempty"`
	// Backend pins the session's exact backend ("scores" or
	// "linear-scan"); empty defers to the server default for exact
	// sessions. Rejected with 400 when combined with p > 0.
	Backend string `json:"backend,omitempty"`
}

// SessionCreateResponse is the POST /v1/sessions reply.
type SessionCreateResponse struct {
	ID string `json:"id"`
	// Threshold is the resolved operating point, when it is already known
	// at create time (explicit t, p=0, or a registry/state-dir hit). Absent
	// when the first query will calibrate it lazily.
	Threshold *elsa.Threshold `json:"threshold,omitempty"`
}

// SessionAppendRequest is the POST /v1/sessions/{id}/append body: one
// token via key/value, or several at once via keys/values or kp/vp. The
// session takes every row or none: a batch with one bad row (wrong
// width, non-finite) answers 400 and leaves the session as it was.
type SessionAppendRequest struct {
	Key    []float32   `json:"key,omitempty"`
	Value  []float32   `json:"value,omitempty"`
	Keys   [][]float32 `json:"keys,omitempty"`
	Values [][]float32 `json:"values,omitempty"`
	// KP and VP carry Keys and Values packed instead: one AppendRow
	// string per row. They exclude the four plain fields; a body that
	// mixes the two forms, or whose packed rows hold a non-finite
	// element, answers 400. The reply is {"len":n} either way.
	KP []string `json:"kp,omitempty"`
	VP []string `json:"vp,omitempty"`
}

// SessionAppendResponse reports the session length after the append.
type SessionAppendResponse struct {
	Len int `json:"len"`
}

// SessionQueryRequest is the POST /v1/sessions/{id}/query body.
type SessionQueryRequest struct {
	Q []float32 `json:"q"`
	// T, when present, overrides the session's threshold for this query
	// only — the wire form of elsa.Overrides on a decode step.
	T *float64 `json:"t,omitempty"`
	// Backend overrides the session's exact backend for this query only.
	Backend string `json:"backend,omitempty"`
}

// SessionQueryResponse is one decode step's result.
type SessionQueryResponse struct {
	// Context is the attention output for this query (omitted inside a
	// packed step wave, which carries it as ContextPacked instead).
	Context []float32 `json:"context,omitempty"`
	// Candidates is the number of prefix keys computed exactly.
	Candidates int `json:"candidates"`
	// Fallback reports whether the filter selected nothing.
	Fallback bool `json:"fallback"`
	// Len is the current prefix length.
	Len int `json:"len"`
	// Threshold is the operating point the query ran with.
	Threshold elsa.Threshold `json:"threshold"`
	// BatchSize is how many session queries the server coalesced into
	// the dispatch this one rode in (1 = it rode alone).
	BatchSize int `json:"batch_size"`
}

// SessionExportResponse is the POST /v1/sessions/{id}/export reply: the
// session's portable state plus everything another worker needs to adopt
// it — the engine configuration (engines are deterministic clones, so the
// importer rebuilds an identical one) and the operating point.
type SessionExportResponse struct {
	ID string `json:"id"`
	// State is the stream's versioned binary Export blob (encoding/json
	// renders []byte as standard base64 on the wire).
	State []byte `json:"state"`
	// Len is the exported prefix length, for sanity checks.
	Len int `json:"len"`
	// Capacity echoes the capacity the session was created with.
	Capacity int `json:"capacity,omitempty"`

	HeadDim   int   `json:"head_dim"`
	HashBits  int   `json:"hash_bits,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Quantized bool  `json:"quantized,omitempty"`

	// P is the session's degree of approximation; Threshold is the
	// resolved operating point when the session has one (absent while the
	// first query has yet to calibrate it).
	P         float64         `json:"p,omitempty"`
	Threshold *elsa.Threshold `json:"threshold,omitempty"`
	// Backend is the session's pinned exact backend, when it has one, so
	// a migration preserves the selection.
	Backend string `json:"backend,omitempty"`
}

// SessionImportRequest is the POST /v1/sessions/import body: adopt a
// session exported from another worker under its original ID — the
// receiving half of live migration. The fields are
// SessionExportResponse's but Len, so an export reply decodes as one.
type SessionImportRequest struct {
	ID       string `json:"id"`
	State    []byte `json:"state"`
	Capacity int    `json:"capacity,omitempty"`

	HeadDim   int   `json:"head_dim"`
	HashBits  int   `json:"hash_bits,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Quantized bool  `json:"quantized,omitempty"`

	P         float64         `json:"p,omitempty"`
	Threshold *elsa.Threshold `json:"threshold,omitempty"`
	Backend   string          `json:"backend,omitempty"`
}

// SessionImportResponse is the POST /v1/sessions/import reply.
type SessionImportResponse struct {
	ID string `json:"id"`
	// Len is the imported prefix length; callers compare it against the
	// export's Len to confirm the state arrived whole.
	Len int `json:"len"`
}

// SessionStepRequest is the POST /v1/sessions/step body: one decode
// step for many sessions in a single request — the client-side
// complement of decode batching. A model runner stepping N sequences
// submits all N queries here; server-side the whole wave is queued
// before its replica set is kicked, and the dispatcher coalesces it
// (with any other in-flight decode traffic) into shared dispatches, so
// the per-request cost that dominates per-query decode is paid once per
// wave instead of once per token.
type SessionStepRequest struct {
	Queries []SessionStepQuery `json:"queries"`
	// Packed asks for context vectors packed (the ContextPacked field)
	// instead of JSON number arrays: per-element float formatting is a
	// bulk wave's dominant cost.
	Packed bool `json:"packed"`
}

// SessionStepQuery is one session's entry in a step wave. Exactly one
// of Q and QPacked carries the query vector.
type SessionStepQuery struct {
	ID string    `json:"id"`
	Q  []float32 `json:"q,omitempty"`
	// QPacked is the query as one AppendRow string — the wave's bulk
	// encoding. JSON float parsing dominates a wave's CPU; packed vectors
	// parse with one base64 decode and round-trip bit-exactly.
	QPacked string `json:"qp"`
	// T, when present, overrides the session's threshold for this query
	// only, exactly as on POST /v1/sessions/{id}/query.
	T *float64 `json:"t,omitempty"`
	// Backend overrides the session's exact backend for this query only,
	// exactly as on POST /v1/sessions/{id}/query.
	Backend string `json:"backend,omitempty"`
}

// SessionStepResponse carries one result per request query, in order.
type SessionStepResponse struct {
	Results []SessionStepResult `json:"results"`
}

// SessionStepResult is one query's outcome inside a step wave. Failures
// are per-entry: a missing session or shed query sets Error while the
// rest of the wave still decodes, and the wave itself answers 200.
type SessionStepResult struct {
	SessionQueryResponse
	// ContextPacked replaces Context when the request set Packed.
	ContextPacked string `json:"context_packed,omitempty"`
	Error         string `json:"error,omitempty"`
}

// HealthResponse is the GET /v1/healthz reply. The fleet fields are
// omitted on servers without remote workers, keeping standalone replies
// byte-identical to earlier versions. A draining server reports Status
// "draining" — still HTTP 200, so frontends keep probing it healthy
// while pinned sessions finish.
type HealthResponse struct {
	Status   string `json:"status"`
	Engines  int    `json:"engines"`
	Sessions int    `json:"sessions"`
	// Role is "frontend" when this server dispatches to remote workers.
	Role string `json:"role,omitempty"`
	// Workers and HealthyWorkers count the remote fleet lanes and how
	// many of them are currently passing probes.
	Workers        int `json:"workers,omitempty"`
	HealthyWorkers int `json:"healthy_workers,omitempty"`
	// Members counts membership entries that have not gone (joining +
	// active + draining); Draining counts those mid-drain.
	Members  int `json:"members,omitempty"`
	Draining int `json:"draining,omitempty"`
	// DecodeCoalesced and DecodeMeanBatch summarize decode batching
	// (queries that shared a batch, and the mean decode batch size).
	// Fleet-view only, like Role.
	DecodeCoalesced int64   `json:"decode_coalesced,omitempty"`
	DecodeMeanBatch float64 `json:"decode_mean_batch,omitempty"`
}

// JoinRequest is the POST /v1/cluster/join body: a worker registering
// with (or heartbeating to) a frontend.
type JoinRequest struct {
	// Addr is the worker's advertised base URL or host:port — what the
	// frontend dials back.
	Addr string `json:"addr"`
	// Weight scales the member's share of session keyspace (default 1).
	Weight int `json:"weight,omitempty"`
	// MaxSessions reports the worker's session capacity (informational).
	MaxSessions int `json:"max_sessions,omitempty"`
	// HeartbeatMS is the interval the worker promises to heartbeat at;
	// missing ~3 intervals expires the member. 0 (a bare one-shot join)
	// never expires — the probe loop alone governs routing.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// Draining announces the worker is draining (propagated from its own
	// /v1/drain state), which is authoritative over probe results.
	Draining bool `json:"draining,omitempty"`
	// Incarnation identifies the worker process, fixed for its lifetime.
	// A heartbeat without Draining revives a draining member only from a
	// new incarnation (or one naming none), so a heartbeat sent before an
	// operator drain reached the worker cannot undo the drain.
	Incarnation uint64 `json:"incarnation,omitempty"`
}

// JoinResponse is the POST /v1/cluster/join reply.
type JoinResponse struct {
	// State is the member's membership state after this join:
	// "joining", "active", or "draining".
	State string `json:"state"`
	// Members counts membership entries that have not gone.
	Members int `json:"members"`
	// Version is the membership table version this join's own update
	// wrote: the version State belongs to, even if a probe or another
	// join has changed the table since.
	Version uint64 `json:"version"`
}

// ClusterSchemaVersion is the current GET /v1/cluster schema version.
// Version 1 introduced the explicit `signals` and `targets` blocks, which
// are the whole reply.
const ClusterSchemaVersion = 1

// ClusterSignals is the GET /v1/cluster `signals` block: the
// frontend-wide load signals an autoscale controller acts on, in one
// documented place. All rates are windowed (events/s over the last ~1s
// interval), never lifetime averages, so hysteresis bands see current
// pressure.
type ClusterSignals struct {
	// QueueDepth is the total queued ops; QueueDepthByClass splits it per
	// priority class. Sustained interactive depth means scale out.
	QueueDepth        int64            `json:"queue_depth"`
	QueueDepthByClass map[string]int64 `json:"queue_depth_by_class"`
	// ShedRateByClass is the windowed shed rate per class in events/s —
	// nonzero means admission is already refusing work.
	ShedRateByClass map[string]float64 `json:"shed_rate_by_class"`
	// ShedsByClass is the cumulative lifetime shed counter per class,
	// kept for dashboards; controllers should use ShedRateByClass.
	ShedsByClass map[string]int64 `json:"sheds_by_class"`
	// MeanBatch and MeanDecodeBatch are the mean dispatched micro-batch
	// and decode-batch sizes — low occupancy with low depth means scale
	// in.
	MeanBatch       float64 `json:"mean_batch"`
	MeanDecodeBatch float64 `json:"mean_decode_batch"`
}

// ClusterTarget is one member in the GET /v1/cluster `targets` block:
// the per-member placement state (capacity, pinned sessions, liveness) a
// controller weighs when picking drain and rebalance targets.
type ClusterTarget struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Static marks members seeded from -workers flags; they cannot be
	// scaled away by a controller, only drained manually.
	Static      bool `json:"static,omitempty"`
	Weight      int  `json:"weight,omitempty"`
	MaxSessions int  `json:"max_sessions,omitempty"`
	// HeartbeatAgeMS is how long ago the member last joined or
	// heartbeated; -1 when it never has.
	HeartbeatAgeMS int64 `json:"heartbeat_age_ms"`
	// PinnedSessions counts live sessions the frontend holds pinned to
	// the member.
	PinnedSessions int `json:"pinned_sessions"`
}

// ClusterResponse is the GET /v1/cluster reply — the versioned cluster
// view driving elsactl and the serve/client typed accessors.
type ClusterResponse struct {
	// SchemaVersion identifies this schema (ClusterSchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Version is the membership table version (bumps on every change).
	Version uint64 `json:"version"`
	// Signals and Members are the v1 blocks: fleet-wide load signals and
	// per-member placement state.
	Signals ClusterSignals  `json:"signals"`
	Members []ClusterTarget `json:"targets"`
}

// ClusterRebalanceRequest is the POST /v1/cluster/rebalance body: migrate
// up to Max pinned sessions toward the member at Addr (typically a fresh
// joiner) using the live export/import path. Max <= 0 means "as many as
// placement prefers".
type ClusterRebalanceRequest struct {
	Addr string `json:"addr"`
	Max  int    `json:"max,omitempty"`
}

// ClusterRebalanceResponse reports the rebalance outcome.
type ClusterRebalanceResponse struct {
	Addr string `json:"addr"`
	// Moved counts sessions live-migrated toward the member.
	Moved int `json:"moved"`
	// PinnedSessions is how many sessions are pinned to the member after
	// the move.
	PinnedSessions int `json:"pinned_sessions"`
}

// ClusterDrainRequest is the POST /v1/cluster/drain body: which member
// to drain.
type ClusterDrainRequest struct {
	Addr string `json:"addr"`
}

// ClusterDrainResponse reports the drain's initial progress.
type ClusterDrainResponse struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Forwarded reports whether the worker's own /v1/drain accepted the
	// signal (false when the worker is unreachable; the frontend-side
	// drain still holds).
	Forwarded bool `json:"forwarded"`
	// PinnedSessions is how many sessions remained pinned to the member
	// when the drain started.
	PinnedSessions int `json:"pinned_sessions"`
	// Relocated counts pinned sessions the frontend live-migrated to
	// other members before replying, instead of waiting them out.
	Relocated int `json:"relocated,omitempty"`
}

// DrainResponse is the POST /v1/drain reply: the server's own drain
// state and how many sessions it still holds.
type DrainResponse struct {
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
}

// Error is the body of every non-2xx reply.
type Error struct {
	Error string `json:"error"`
}
