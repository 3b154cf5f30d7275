package client

import (
	"context"

	"elsa"
)

// SessionOptions configures a server-side decode session. The embedded
// elsa.Overrides carries the operating point (explicit Thr, or P for the
// server to resolve); HeadDim is required.
type SessionOptions struct {
	elsa.Overrides
	HeadDim   int
	HashBits  int
	Seed      int64
	Quantized bool
	// Capacity preallocates stream storage for this many tokens.
	Capacity int
}

// Session is a handle to one server-side autoregressive decode stream.
// The session inherits the creating client's identity and priority:
// every Append/Query is charged against that client's quota.
type Session struct {
	c  *Client
	id string
	// Threshold is the session's resolved operating point when the server
	// knew it at create time; nil while it waits for lazy calibration.
	Threshold *elsa.Threshold
}

// QueryResult is one decode step's outcome.
type QueryResult struct {
	Context    []float32
	Candidates int
	Fallback   bool
	Len        int
	Threshold  elsa.Threshold
	// BatchSize is how many session queries the server coalesced into
	// the dispatch this one rode in (1 = it rode alone; 0 from servers
	// predating decode batching).
	BatchSize int
}

type sessionCreateWire struct {
	HeadDim   int      `json:"head_dim"`
	HashBits  int      `json:"hash_bits,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Quantized bool     `json:"quantized,omitempty"`
	P         float64  `json:"p,omitempty"`
	T         *float64 `json:"t,omitempty"`
	Capacity  int      `json:"capacity,omitempty"`
	Backend   string   `json:"backend,omitempty"`
}

type sessionCreateReplyWire struct {
	ID        string         `json:"id"`
	Threshold *thresholdWire `json:"threshold,omitempty"`
}

type sessionAppendReplyWire struct {
	Len int `json:"len"`
}

type sessionQueryWire struct {
	Q       []float32 `json:"q"`
	T       *float64  `json:"t,omitempty"`
	Backend string    `json:"backend,omitempty"`
}

type sessionQueryReplyWire struct {
	Context    []float32     `json:"context"`
	Candidates int           `json:"candidates"`
	Fallback   bool          `json:"fallback"`
	Len        int           `json:"len"`
	Threshold  thresholdWire `json:"threshold"`
	BatchSize  int           `json:"batch_size"`
}

// NewSession creates a server-side decode session.
func (c *Client) NewSession(ctx context.Context, opts SessionOptions) (*Session, error) {
	wire := sessionCreateWire{
		HeadDim:   opts.HeadDim,
		HashBits:  opts.HashBits,
		Seed:      opts.Seed,
		Quantized: opts.Quantized,
		P:         opts.P,
		Capacity:  opts.Capacity,
		Backend:   opts.Backend,
	}
	if opts.Thr != nil {
		wire.P = opts.Thr.P
		wire.T = &opts.Thr.T
	}
	var reply sessionCreateReplyWire
	if err := c.post(ctx, "/v1/sessions", wire, &reply); err != nil {
		return nil, err
	}
	s := &Session{c: c, id: reply.ID}
	if reply.Threshold != nil {
		s.Threshold = &elsa.Threshold{P: reply.Threshold.P, T: reply.Threshold.T, Queries: reply.Threshold.Queries}
	}
	return s, nil
}

// ID returns the server-assigned session ID.
func (s *Session) ID() string { return s.id }

// Append adds one token's key/value pair, returning the prefix length.
// The rows travel packed (kp/vp: base64 little-endian float32, bit-exact),
// as AppendBatch sends them, so a server older than the packed append
// form answers 400 "append requires at least one key/value pair".
func (s *Session) Append(ctx context.Context, key, value []float32) (int, error) {
	return s.AppendBatch(ctx, [][]float32{key}, [][]float32{value})
}

// AppendBatch adds several tokens at once, returning the prefix length.
// The server takes every row or none: a batch with a bad row (wrong
// width, non-finite) is refused whole and leaves the session as it was.
func (s *Session) AppendBatch(ctx context.Context, keys, values [][]float32) (int, error) {
	body, err := packedBody(s.c.wrap(ctx, nil), []packedMember{{"kp", keys}, {"vp", values}}, struct{}{})
	if err != nil {
		return 0, err
	}
	var reply sessionAppendReplyWire
	if err := s.c.send(ctx, "/v1/sessions/"+s.id+"/append", body, &reply); err != nil {
		return 0, err
	}
	return reply.Len, nil
}

// Query attends q over the session's prefix. A non-nil Overrides.Thr
// overrides the session threshold for this query only.
func (s *Session) Query(ctx context.Context, q []float32, ov elsa.Overrides) (*QueryResult, error) {
	wire := sessionQueryWire{Q: q, Backend: ov.Backend}
	if ov.Thr != nil {
		wire.T = &ov.Thr.T
	}
	var reply sessionQueryReplyWire
	if err := s.c.post(ctx, "/v1/sessions/"+s.id+"/query", wire, &reply); err != nil {
		return nil, err
	}
	return &QueryResult{
		Context:    reply.Context,
		Candidates: reply.Candidates,
		Fallback:   reply.Fallback,
		Len:        reply.Len,
		Threshold:  elsa.Threshold{P: reply.Threshold.P, T: reply.Threshold.T, Queries: reply.Threshold.Queries},
		BatchSize:  reply.BatchSize,
	}, nil
}

// SessionState is a session's portable state: the opaque stream blob a
// server exported plus the engine configuration and operating point
// another server needs to adopt it bit-identically.
type SessionState struct {
	ID        string
	State     []byte
	Len       int
	Capacity  int
	HeadDim   int
	HashBits  int
	Seed      int64
	Quantized bool
	P         float64
	Threshold *elsa.Threshold
	// Backend pins the session's exact backend ("" = server default).
	Backend string
}

// sessionStateWire mirrors the server's export reply and import request
// (they share a shape so state forwards without re-encoding).
type sessionStateWire struct {
	ID        string         `json:"id"`
	State     []byte         `json:"state"`
	Len       int            `json:"len,omitempty"`
	Capacity  int            `json:"capacity,omitempty"`
	HeadDim   int            `json:"head_dim"`
	HashBits  int            `json:"hash_bits,omitempty"`
	Seed      int64          `json:"seed,omitempty"`
	Quantized bool           `json:"quantized,omitempty"`
	P         float64        `json:"p,omitempty"`
	Threshold *thresholdWire `json:"threshold,omitempty"`
	Backend   string         `json:"backend,omitempty"`
}

type sessionImportReplyWire struct {
	ID  string `json:"id"`
	Len int    `json:"len"`
}

// Export fetches the session's portable state
// (POST /v1/sessions/{id}/export): everything ImportSession needs to
// re-create the stream bit-identically on another server.
func (s *Session) Export(ctx context.Context) (*SessionState, error) {
	var reply sessionStateWire
	if err := s.c.post(ctx, "/v1/sessions/"+s.id+"/export", struct{}{}, &reply); err != nil {
		return nil, err
	}
	st := &SessionState{
		ID:        reply.ID,
		State:     reply.State,
		Len:       reply.Len,
		Capacity:  reply.Capacity,
		HeadDim:   reply.HeadDim,
		HashBits:  reply.HashBits,
		Seed:      reply.Seed,
		Quantized: reply.Quantized,
		P:         reply.P,
		Backend:   reply.Backend,
	}
	if reply.Threshold != nil {
		st.Threshold = &elsa.Threshold{P: reply.Threshold.P, T: reply.Threshold.T, Queries: reply.Threshold.Queries}
	}
	return st, nil
}

// ImportSession adopts an exported session on the server this client
// points at, under its original ID — the receiving half of live
// migration between workers (POST /v1/sessions/import).
func (c *Client) ImportSession(ctx context.Context, st *SessionState) (*Session, error) {
	wire := sessionStateWire{
		ID:        st.ID,
		State:     st.State,
		Capacity:  st.Capacity,
		HeadDim:   st.HeadDim,
		HashBits:  st.HashBits,
		Seed:      st.Seed,
		Quantized: st.Quantized,
		P:         st.P,
		Backend:   st.Backend,
	}
	if st.Threshold != nil {
		wire.P = st.Threshold.P
		wire.Threshold = &thresholdWire{P: st.Threshold.P, T: st.Threshold.T, Queries: st.Threshold.Queries}
	}
	var reply sessionImportReplyWire
	if err := c.post(ctx, "/v1/sessions/import", wire, &reply); err != nil {
		return nil, err
	}
	s := &Session{c: c, id: reply.ID}
	if st.Threshold != nil {
		thr := *st.Threshold
		s.Threshold = &thr
	}
	return s, nil
}

// Close deletes the session server-side.
func (s *Session) Close(ctx context.Context) error {
	_, err := s.c.delete(ctx, "/v1/sessions/"+s.id)
	return err
}

// delete issues a DELETE with no body or retry (deletion is idempotent
// enough that a caller can simply re-issue it).
func (c *Client) delete(ctx context.Context, path string) (*APIError, error) {
	apiErr, err := c.once(ctx, "DELETE", path, nil, nil)
	if err != nil {
		return nil, err
	}
	if apiErr != nil {
		return apiErr, apiErr
	}
	return nil, nil
}
