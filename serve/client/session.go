package client

import (
	"context"

	"elsa"
	"elsa/internal/wire"
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

// QueryResult is one decode step's outcome. BatchSize is how many
// session queries the server coalesced into the dispatch this one rode
// in (1 = it rode alone; 0 from servers predating decode batching).
type QueryResult = wire.SessionQueryResponse

// NewSession creates a server-side decode session.
func (c *Client) NewSession(ctx context.Context, opts SessionOptions) (*Session, error) {
	op := wire.SessionCreateRequest{
		HeadDim:   opts.HeadDim,
		HashBits:  opts.HashBits,
		Seed:      opts.Seed,
		Quantized: opts.Quantized,
		P:         opts.P,
		Capacity:  opts.Capacity,
		Backend:   opts.Backend,
	}
	if opts.Thr != nil {
		op.P = opts.Thr.P
		op.T = &opts.Thr.T
	}
	var reply wire.SessionCreateResponse
	if err := c.post(ctx, "/v1/sessions", op, &reply); err != nil {
		return nil, err
	}
	return &Session{c: c, id: reply.ID, Threshold: reply.Threshold}, nil
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
	var reply wire.SessionAppendResponse
	if err := s.c.send(ctx, "/v1/sessions/"+s.id+"/append", body, &reply); err != nil {
		return 0, err
	}
	return reply.Len, nil
}

// Query attends q over the session's prefix. A non-nil Overrides.Thr
// overrides the session threshold for this query only.
func (s *Session) Query(ctx context.Context, q []float32, ov elsa.Overrides) (*QueryResult, error) {
	op := wire.SessionQueryRequest{Q: q, Backend: ov.Backend}
	if ov.Thr != nil {
		op.T = &ov.Thr.T
	}
	var res QueryResult
	if err := s.c.post(ctx, "/v1/sessions/"+s.id+"/query", op, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SessionState is a session's portable state: the opaque stream blob a
// server exported plus the engine configuration and operating point
// another server needs to adopt it bit-identically. Backend pins the
// session's exact backend ("" = server default).
type SessionState = wire.SessionExportResponse

// Export fetches the session's portable state
// (POST /v1/sessions/{id}/export): everything ImportSession needs to
// re-create the stream bit-identically on another server.
func (s *Session) Export(ctx context.Context) (*SessionState, error) {
	var st SessionState
	if err := s.c.post(ctx, "/v1/sessions/"+s.id+"/export", struct{}{}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ImportSession adopts an exported session on the server this client
// points at, under its original ID — the receiving half of live
// migration between workers (POST /v1/sessions/import).
func (c *Client) ImportSession(ctx context.Context, st *SessionState) (*Session, error) {
	op := wire.SessionImportRequest{
		ID:        st.ID,
		State:     st.State,
		Capacity:  st.Capacity,
		HeadDim:   st.HeadDim,
		HashBits:  st.HashBits,
		Seed:      st.Seed,
		Quantized: st.Quantized,
		P:         st.P,
		Threshold: st.Threshold,
		Backend:   st.Backend,
	}
	if st.Threshold != nil {
		op.P = st.Threshold.P
	}
	var reply wire.SessionImportResponse
	if err := c.post(ctx, "/v1/sessions/import", op, &reply); err != nil {
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
func (s *Session) Close(ctx context.Context) error { return s.c.CloseSession(ctx, s.id) }

// CloseSession deletes the session with the given ID server-side, with no
// retry (deletion is idempotent enough that a caller can simply re-issue
// it).
func (c *Client) CloseSession(ctx context.Context, id string) error {
	apiErr, err := c.once(ctx, "DELETE", "/v1/sessions/"+id, nil, nil)
	if err != nil {
		return err
	}
	if apiErr != nil {
		return apiErr
	}
	return nil
}
