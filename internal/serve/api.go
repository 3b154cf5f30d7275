package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"elsa"
	"elsa/serve/client"
)

// Envelope is the versioned v1 request envelope shared by every POST
// endpoint: admission metadata (who is asking, at what priority, with how
// much latency budget) wraps the op payload in `op`. A body without an
// `op` key answers 400 with a hint to wrap it. Envelope is the form for
// building a body around an already-encoded op; the server decodes
// through envelope, which has the same fields.
type Envelope struct {
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
	Op json.RawMessage `json:"op,omitempty"`
}

// envelope is Envelope as decodeEnvelope reads it: the op decodes
// straight into its payload type in the same pass as the metadata, so a
// body is scanned once instead of once for the envelope and again for
// the op. A missing or null op leaves Op nil.
type envelope[T any] struct {
	ClientID   string `json:"client_id"`
	Priority   string `json:"priority"`
	DeadlineMS int64  `json:"deadline_ms"`
	Op         *T     `json:"op"`
}

// requestMeta is the envelope's admission metadata, resolved.
type requestMeta struct {
	clientID string
	class    Class
	deadline time.Duration // remaining budget; 0 = none
}

// bareBodyHint is the 400 body a payload sent without the v1 envelope
// earns: it names the fix so old clients can self-serve the migration.
const bareBodyHint = `bare payload rejected: wrap the request body in the v1 envelope {"op": <payload>} (optionally with client_id / priority / deadline_ms)`

// decodeEnvelope decodes a size-bounded v1 envelope body in one pass,
// its op into payload, and resolves the admission metadata (falling back
// to the X-Elsa-Client / X-Elsa-Priority headers). It answers 400 itself
// on failure; a body whose op is missing or null earns bareBodyHint.
func decodeEnvelope[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, payload *T) (requestMeta, bool) {
	body, err := readBody(w, r, maxBytes)
	if err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return requestMeta{}, false
	}
	return decodeEnvelopeBody(w, r, body, payload)
}

// readBody reads a request body of at most maxBytes. A body whose
// Content-Length is known and within the limit is read with one
// exact-size read instead of a ReadAll that grows its buffer by
// doubling; net/http stops the body at its declared length and fails one
// cut short with io.ErrUnexpectedEOF, as ReadAll reports it. Any other
// body (chunked, or declared over the limit) goes through
// http.MaxBytesReader, whose error names the limit.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	if r.ContentLength < 0 || r.ContentLength > maxBytes {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	}
	body := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// decodeEnvelopeBody is decodeEnvelope on a body already read.
func decodeEnvelopeBody[T any](w http.ResponseWriter, r *http.Request, body []byte, payload *T) (requestMeta, bool) {
	var env envelope[T]
	if err := json.Unmarshal(body, &env); err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return requestMeta{}, false
	}
	if env.Op == nil {
		fail(w, http.StatusBadRequest, bareBodyHint)
		return requestMeta{}, false
	}
	*payload = *env.Op
	return env.meta(w, r)
}

// meta resolves the envelope's admission metadata, falling back to the
// X-Elsa-Client / X-Elsa-Priority headers. It answers 400 itself on an
// unknown priority.
func (env *envelope[T]) meta(w http.ResponseWriter, r *http.Request) (requestMeta, bool) {
	meta := requestMeta{clientID: env.ClientID}
	if meta.clientID == "" {
		meta.clientID = r.Header.Get("X-Elsa-Client")
	}
	priority := env.Priority
	if priority == "" {
		priority = r.Header.Get("X-Elsa-Priority")
	}
	var err error
	meta.class, err = parseClass(priority)
	if err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return requestMeta{}, false
	}
	if env.DeadlineMS > 0 {
		meta.deadline = time.Duration(env.DeadlineMS) * time.Millisecond
	}
	return meta, true
}

// AttendRequest is the POST /v1/attend body: one self-attention op plus
// the engine configuration it should run under. Omitted engine fields take
// the library defaults; an omitted head_dim is inferred from the query
// width so small hand-written payloads work out of the box.
type AttendRequest struct {
	Q [][]float32 `json:"q"`
	K [][]float32 `json:"k"`
	V [][]float32 `json:"v"`
	// QP, KP and VP carry Q, K and V packed instead: one client.PackVec
	// string (base64 little-endian float32, bit-exact) per row. Each
	// matrix arrives either plain or packed, never both. Packed queries
	// get their reply as ContextPacked: packed in, packed out.
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
	// Backend selects the exact implementation for an exact op ("scores"
	// or "linear-scan"); empty defers to the server's -exact-backend
	// default. Rejected with 400 when combined with p > 0.
	Backend string `json:"backend,omitempty"`

	HeadDim   int   `json:"head_dim,omitempty"`
	HashBits  int   `json:"hash_bits,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Quantized bool  `json:"quantized,omitempty"`
}

// AttendResponse is the POST /v1/attend reply.
type AttendResponse struct {
	// Context is the attention output, one row per query, for a request
	// whose queries arrived plain.
	Context [][]float32 `json:"context,omitempty"`
	// ContextPacked replaces Context, one client.PackVec string per row,
	// for a request whose queries arrived packed (qp).
	ContextPacked []string `json:"context_packed,omitempty"`
	// CandidateFraction is the mean fraction of keys admitted by the
	// filter per query.
	CandidateFraction float64 `json:"candidate_fraction"`
	// FallbackQueries counts queries whose filter selected nothing.
	FallbackQueries int `json:"fallback_queries"`
	// Threshold echoes the operating point the op actually ran with.
	Threshold ThresholdJSON `json:"threshold"`
	// BatchSize is how many concurrent ops shared this op's dispatched
	// micro-batch.
	BatchSize int `json:"batch_size"`
}

// ThresholdJSON mirrors elsa.Threshold on the wire.
type ThresholdJSON struct {
	P       float64 `json:"p"`
	T       float64 `json:"t"`
	Queries int     `json:"queries,omitempty"`
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
	// Backend pins the session's exact backend ("scores" or
	// "linear-scan"); empty defers to the server default for exact
	// sessions. Rejected with 400 when combined with p > 0.
	Backend string `json:"backend,omitempty"`

	// Capacity preallocates stream storage for this many tokens (optional).
	Capacity int `json:"capacity,omitempty"`
}

// SessionCreateResponse is the POST /v1/sessions reply.
type SessionCreateResponse struct {
	ID string `json:"id"`
	// Threshold is the resolved operating point, when it is already known
	// at create time (explicit t, p=0, or a registry/state-dir hit). Absent
	// when the first query will calibrate it lazily.
	Threshold *ThresholdJSON `json:"threshold,omitempty"`
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
	// KP and VP carry Keys and Values packed instead: one client.PackVec
	// string (base64 little-endian float32, bit-exact) per row. They
	// exclude the four plain fields; a body that mixes the two forms, or
	// whose packed rows hold a non-finite element, answers 400. The
	// reply is {"len":n} either way.
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
	Threshold ThresholdJSON `json:"threshold"`
	// BatchSize is how many session queries the server coalesced into
	// the dispatch this one rode in (1 = it rode alone).
	BatchSize int `json:"batch_size"`
}

// SessionExportResponse is the POST /v1/sessions/{id}/export reply: the
// session's portable state plus everything another worker needs to adopt
// it — the engine configuration (engines are deterministic clones, so the
// importer rebuilds an identical one) and the operating point. The state
// blob is the stream's versioned binary Export, base64 on the wire.
type SessionExportResponse struct {
	ID string `json:"id"`
	// State is the stream's Export blob (encoding/json renders []byte as
	// standard base64 on the wire).
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
	P         float64        `json:"p,omitempty"`
	Threshold *ThresholdJSON `json:"threshold,omitempty"`
	// Backend is the session's pinned exact backend, when it has one, so
	// a migration preserves the selection.
	Backend string `json:"backend,omitempty"`
}

// SessionImportRequest is the POST /v1/sessions/import body: adopt a
// session exported from another worker under its original ID — the
// receiving half of live migration. The fields mirror
// SessionExportResponse, so a mover can forward an export reply directly.
type SessionImportRequest struct {
	ID       string `json:"id"`
	State    []byte `json:"state"`
	Capacity int    `json:"capacity,omitempty"`

	HeadDim   int   `json:"head_dim"`
	HashBits  int   `json:"hash_bits,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Quantized bool  `json:"quantized,omitempty"`

	P         float64        `json:"p,omitempty"`
	Threshold *ThresholdJSON `json:"threshold,omitempty"`
	Backend   string         `json:"backend,omitempty"`
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
	// Packed asks for context vectors as packed base64 float32 (the
	// ContextPacked field) instead of JSON number arrays. Bulk waves use
	// it for the same reason QPacked exists: per-element float formatting
	// is the response's dominant cost.
	Packed bool `json:"packed,omitempty"`
}

// SessionStepQuery is one session's entry in a step wave. Exactly one
// of Q and QPacked carries the query vector.
type SessionStepQuery struct {
	ID string    `json:"id"`
	Q  []float32 `json:"q,omitempty"`
	// QPacked is the query as base64 little-endian float32 — the wave's
	// bulk encoding. JSON float parsing dominates a wave's CPU; packed
	// vectors parse with one base64 decode and round-trip bit-exactly.
	QPacked string `json:"qp,omitempty"`
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
	// ContextPacked replaces Context (base64 little-endian float32) when
	// the request set Packed.
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
// with (or heartbeating to) this frontend.
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
	// State is the member's resulting membership state.
	State string `json:"state"`
	// Members counts membership entries that have not gone.
	Members int `json:"members"`
	// Version is the membership table version after this join.
	Version uint64 `json:"version"`
}

// ClusterSchemaVersion is the current GET /v1/cluster schema version.
// Version 1 introduced the explicit `signals` and `targets` blocks, which
// are the whole reply.
const ClusterSchemaVersion = 1

// ClusterSignalsJSON is the GET /v1/cluster `signals` block: the
// frontend-wide load signals an autoscale controller acts on, in one
// documented place. All rates are windowed (events/s over the last ~1s
// interval), never lifetime averages, so hysteresis bands see current
// pressure.
type ClusterSignalsJSON struct {
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

// ClusterTargetJSON is one member in the GET /v1/cluster `targets`
// block: the per-member placement state (capacity, pinned sessions,
// liveness) a controller weighs when picking drain and rebalance targets.
type ClusterTargetJSON struct {
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
	// PinnedSessions counts live sessions this frontend holds pinned to
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
	// Signals and Targets are the v1 blocks: fleet-wide load signals and
	// per-member placement state.
	Signals ClusterSignalsJSON  `json:"signals"`
	Targets []ClusterTargetJSON `json:"targets"`
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

// DrainResponse is the POST /v1/drain reply: this server's own drain
// state and how many sessions it still holds.
type DrainResponse struct {
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
}

// errorResponse is the JSON body for every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// unpack decodes the packed matrices into Q/K/V, rejecting a matrix sent
// both ways and any non-finite element. JSON numbers cannot spell NaN or
// Inf but packed bits can; caught here, such an op answers 400 on its
// own instead of failing every op of the micro-batch it would join.
func (r *AttendRequest) unpack() error {
	for _, part := range []struct {
		name   string
		rows   *[][]float32
		packed []string
	}{{"q", &r.Q, r.QP}, {"k", &r.K, r.KP}, {"v", &r.V, r.VP}} {
		if part.packed == nil {
			continue
		}
		if *part.rows != nil {
			return fmt.Errorf("%s and %sp are mutually exclusive", part.name, part.name)
		}
		rows, err := unpackMatrix(part.name+"p", part.packed)
		if err != nil {
			return err
		}
		*part.rows = rows
	}
	return nil
}

// unpack decodes kp and vp into Keys and Values, rejecting a body that
// mixes them with any plain field and any non-finite element, as
// AttendRequest.unpack does.
func (r *SessionAppendRequest) unpack() error {
	if r.KP == nil && r.VP == nil {
		return nil
	}
	if r.Key != nil || r.Value != nil || r.Keys != nil || r.Values != nil {
		return errors.New("kp/vp and key/value/keys/values are mutually exclusive")
	}
	var err error
	if r.Keys, err = unpackMatrix("kp", r.KP); err != nil {
		return err
	}
	if r.Values, err = unpackMatrix("vp", r.VP); err != nil {
		return err
	}
	r.KP, r.VP = nil, nil
	return nil
}

// rows returns the batch the request appends: key/value as one row, or
// keys/values. It refuses a request that sets both plain forms, carries
// no row, or pairs a different number of keys and values.
func (r *SessionAppendRequest) rows() (keys, values [][]float32, err error) {
	keys, values = r.Keys, r.Values
	if r.Key != nil || r.Value != nil {
		if keys != nil || values != nil {
			return nil, nil, errors.New("use key/value or keys/values, not both")
		}
		keys, values = [][]float32{r.Key}, [][]float32{r.Value}
	}
	if len(keys) == 0 {
		return nil, nil, errors.New("append requires at least one key/value pair")
	}
	if len(keys) != len(values) {
		return nil, nil, fmt.Errorf("%d keys but %d values", len(keys), len(values))
	}
	return keys, values, nil
}

// unpackMatrix decodes the packed rows of the matrix named name into one
// float32 backing. A row's base64 errors are reported ahead of any
// row's non-finite elements.
func unpackMatrix(name string, packed []string) ([][]float32, error) {
	if packed == nil {
		return nil, nil
	}
	floats, widest := 0, 0
	for _, s := range packed {
		floats += packedFloats(len(s))
		widest = max(widest, len(s))
	}
	backing := make([]float32, 0, floats)
	scratch := make([]byte, base64.StdEncoding.DecodedLen(widest))
	rows := make([][]float32, len(packed))
	badRow, badCol := -1, -1
	for i, s := range packed {
		start := len(backing)
		var bad int
		var err error
		if backing, bad, err = decodeRow(backing, scratch, []byte(s)); err != nil {
			return nil, fmt.Errorf("%s row %d: %w", name, i, err)
		}
		if bad >= 0 && badRow < 0 {
			badRow, badCol = i, bad
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	if badRow >= 0 {
		return nil, fmt.Errorf("%s row %d element %d is not finite (%g)",
			name, badRow, badCol, rows[badRow][badCol])
	}
	return rows, nil
}

// packedFloats is how many float32s a packed row of n base64 bytes can
// hold at most: three bytes per four characters, four bytes per float.
// Decoders size their backing by it, so a body buys at most 3/16 of its
// base64 length in floats.
func packedFloats(n int) int { return base64.StdEncoding.DecodedLen(n) / 4 }

// decodeRow base64-decodes one packed row (a client.PackVec string)
// through scratch, which holds at least DecodedLen(len(src)) bytes, and
// appends its float32s to dst. bad is the index of the row's first
// non-finite element, or -1. The error texts are the /v1/attend wire
// contract; both the body scanner and unpack decode through here.
func decodeRow(dst []float32, scratch, src []byte) (out []float32, bad int, err error) {
	n, err := base64.StdEncoding.Decode(scratch, src)
	if err != nil {
		return nil, -1, fmt.Errorf("packed vector: %w", err)
	}
	if n%4 != 0 {
		return nil, -1, fmt.Errorf("packed vector is %d bytes, not a multiple of 4", n)
	}
	bad = -1
	for i := 0; i < n; i += 4 {
		bits := binary.LittleEndian.Uint32(scratch[i:])
		if bits&0x7f800000 == 0x7f800000 && bad < 0 { // exponent all ones: Inf or NaN
			bad = i / 4
		}
		dst = append(dst, math.Float32frombits(bits))
	}
	return dst, bad, nil
}

// unpack checks a step wave's entries and decodes each packed query
// into Q: a wave needs at least one entry, and each entry exactly one
// non-empty query, plain or packed.
func (r *SessionStepRequest) unpack() error {
	if len(r.Queries) == 0 {
		return errors.New("step requires at least one query")
	}
	for i := range r.Queries {
		q := &r.Queries[i]
		if q.QPacked != "" {
			if len(q.Q) != 0 {
				return fmt.Errorf("queries[%d] sets both q and qp", i)
			}
			vec, err := client.UnpackVec(q.QPacked)
			if err != nil {
				return fmt.Errorf("queries[%d].qp: %v", i, err)
			}
			q.Q = vec
		}
		if len(q.Q) == 0 {
			return fmt.Errorf("queries[%d].q must be non-empty", i)
		}
	}
	return nil
}

// validate performs the shape checks the scheduler relies on, returning a
// client-addressable error.
func (r *AttendRequest) validate() error {
	for _, part := range []struct {
		name string
		rows [][]float32
	}{{"q", r.Q}, {"k", r.K}, {"v", r.V}} {
		if len(part.rows) == 0 {
			return fmt.Errorf("%s must have at least one row", part.name)
		}
		cols := len(part.rows[0])
		if cols == 0 {
			return fmt.Errorf("%s row 0 is empty", part.name)
		}
		for i, row := range part.rows {
			if len(row) != cols {
				return fmt.Errorf("%s is ragged: row %d has %d columns, row 0 has %d",
					part.name, i, len(row), cols)
			}
		}
	}
	if len(r.K) != len(r.V) {
		return fmt.Errorf("%d keys but %d values", len(r.K), len(r.V))
	}
	return checkOperatingPoint(r.P, r.T, r.Backend)
}

// checkOperatingPoint validates an op's or session's wire operating
// point: p must be >= 0, the backend selector known, an exact backend
// only on an exact op (p = 0), and never beside an explicit t — an exact
// backend never consults a threshold, so naming both is contradictory
// rather than silently dropping one. Every violation answers 400.
func checkOperatingPoint(p float64, t *float64, backend string) error {
	switch {
	case p < 0:
		return fmt.Errorf("p must be >= 0, got %g", p)
	case !elsa.ValidBackend(backend):
		return fmt.Errorf("unknown backend %q (want %q or %q)",
			backend, elsa.BackendScores, elsa.BackendLinearScan)
	case backend != elsa.BackendAuto && p != 0:
		return fmt.Errorf("backend %q requires an exact operating point (p = 0)", backend)
	case backend != elsa.BackendAuto && t != nil:
		return errors.New("backend and t are mutually exclusive")
	}
	return nil
}

// options maps the request's engine fields onto elsa.Options.
func (r *AttendRequest) options() elsa.Options {
	return normalizeOptions(elsa.Options{
		HeadDim:   r.HeadDim,
		HashBits:  r.HashBits,
		Seed:      r.Seed,
		Quantized: r.Quantized,
	}, len(r.Q[0]))
}

// overrides maps the request's operating-point fields onto the library's
// per-op override struct: an explicit t pins the threshold, otherwise p
// is left for the server's registry to resolve.
func (r *AttendRequest) overrides() elsa.Overrides {
	ov := elsa.Overrides{P: r.P, Backend: r.Backend}
	if r.T != nil {
		ov.Thr = &elsa.Threshold{P: r.P, T: *r.T}
	}
	return ov
}

// queryOverrides maps a decode query's operating-point fields onto the
// per-query override struct: its own threshold and backend, when set.
func queryOverrides(t *float64, backend string) elsa.Overrides {
	ov := elsa.Overrides{Backend: backend}
	if t != nil {
		ov.Thr = &elsa.Threshold{T: *t}
	}
	return ov
}
