// Package client is the Go client for the elsaserve HTTP API. It speaks
// the v1 request envelope (client identity, priority class, deadline
// budget wrapped around each op), retries throttled requests honouring
// the server's Retry-After hint, and exposes decode sessions as a
// handle so callers never hand-roll endpoint JSON.
//
// Every body it writes or reads is declared once, in internal/wire, for
// this package and the server alike. A public reply type that is a wire
// body as it stands (Health, ClusterInfo, QueryResult, ...) is an alias
// of it; the option types (AttendOptions, SessionOptions, JoinRequest)
// convert to their wire body in one place each.
package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"elsa"
	"elsa/internal/wire"
)

// Client talks to one elsaserve instance. It is safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	clientID string
	priority string
	retries  int
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithClientID names this client for the server's per-client quota.
// Unnamed clients share the server's anonymous bucket.
func WithClientID(id string) Option { return func(c *Client) { c.clientID = id } }

// WithPriority sets the default priority class for every request:
// "interactive" (the server default), "batch", or "background".
func WithPriority(p string) Option { return func(c *Client) { c.priority = p } }

// WithRetries sets how many times a throttled (429) or draining (503)
// request is retried, sleeping the server's Retry-After between attempts
// (default 0: no retries).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// New builds a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx server reply.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration // server backoff hint; 0 when absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("elsaserve: %d: %s", e.Status, e.Message)
}

// AttendOptions selects the engine configuration and operating point for
// one Attend call. The embedded elsa.Overrides names the per-op knobs the
// same way the batch and streaming APIs do: a non-nil Thr pins an
// explicit threshold, P asks the server to calibrate.
type AttendOptions struct {
	elsa.Overrides
	HeadDim   int
	HashBits  int
	Seed      int64
	Quantized bool
}

// Result is one Attend call's outcome.
type Result struct {
	Context           [][]float32
	CandidateFraction float64
	FallbackQueries   int
	Threshold         elsa.Threshold
	BatchSize         int
}

// Health is the server's /v1/healthz reply. The worker/fleet fields are
// present only on servers configured with remote workers.
type Health = wire.HealthResponse

// Health fetches /v1/healthz — the same probe elsaserve frontends use to
// admit and eject remote workers.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	apiErr, err := c.once(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	if err != nil {
		return nil, err
	}
	if apiErr != nil {
		return nil, apiErr
	}
	return &h, nil
}

// Attend runs one self-attention op on the server. A ctx deadline is
// forwarded as the envelope's deadline_ms, so the server can shed the op
// up front when its queue cannot meet it. Q/K/V travel packed (base64
// little-endian float32, bit-exact) and so does the returned context:
// JSON float text would cost more CPU than the attention itself.
func (c *Client) Attend(ctx context.Context, q, k, v [][]float32, opts AttendOptions) (*Result, error) {
	body, err := attendBody(c.wrap(ctx, nil), q, k, v, opts)
	if err != nil {
		return nil, err
	}
	var reply wire.AttendResponse
	if err := c.send(ctx, "/v1/attend", body, &reply); err != nil {
		return nil, err
	}
	if reply.ContextPacked != nil {
		out, err := UnpackRows(reply.ContextPacked)
		if err != nil {
			return nil, fmt.Errorf("client: decoding reply: context_packed %w", err)
		}
		reply.Context = out
	}
	return &Result{
		Context:           reply.Context,
		CandidateFraction: reply.CandidateFraction,
		FallbackQueries:   reply.FallbackQueries,
		Threshold:         reply.Threshold,
		BatchSize:         reply.BatchSize,
	}, nil
}

// attendBody is the /v1/attend body for env (whose Op must be nil)
// around the op q, k, v, opts: byte for byte what json.Marshal writes
// for an op struct whose leading fields qp, kp and vp hold PackRows of q,
// k and v, followed by the other fields of wire.AttendRequest. The
// packed rows also make the server answer with context_packed.
func attendBody(env wire.Envelope[any], q, k, v [][]float32, opts AttendOptions) ([]byte, error) {
	op := wire.AttendRequest{
		P:         opts.P,
		HeadDim:   opts.HeadDim,
		HashBits:  opts.HashBits,
		Seed:      opts.Seed,
		Quantized: opts.Quantized,
		Backend:   opts.Backend,
	}
	if opts.Thr != nil {
		op.P = opts.Thr.P
		op.T = &opts.Thr.T
	}
	return packedBody(env, []packedMember{{"qp", q}, {"kp", k}, {"vp", v}}, op)
}

// packedMember is one packed matrix of an op: its key and its rows.
type packedMember struct {
	key  string
	rows [][]float32
}

// packedBody is the body for env (whose Op must be nil) around an op
// whose leading members are the packed matrices, followed by tail's
// fields: byte for byte what json.Marshal writes for an op struct whose
// leading fields hold PackRows of each matrix. The rows' base64 is
// appended straight into one buffer sized up front, so it is never
// copied into strings and re-scanned for escapes (base64 has none to
// escape); the envelope head and the scalar tail are short and still go
// through json.Marshal. The buffer comes from wire.BytePool, and send
// returns it there.
func packedBody(env wire.Envelope[any], members []packedMember, tail any) ([]byte, error) {
	head, err := json.Marshal(env) // ends in "op":null}
	if err != nil {
		return nil, fmt.Errorf("client: encoding op: %w", err)
	}
	rest, err := json.Marshal(tail) // {} or {"p":...}
	if err != nil {
		return nil, fmt.Errorf("client: encoding op: %w", err)
	}
	head = head[:len(head)-len("null}")]
	size := len(head) + len("}") + len(rest)
	for _, m := range members {
		size += len(`,"":[]`) + len(m.key)
		for _, row := range m.rows {
			size += len(`"",`) + base64.StdEncoding.EncodedLen(4*len(row))
		}
	}
	body := wire.BytePool.Get(size)[:0]
	body = append(body, head...)
	sep := byte('{')
	for _, m := range members {
		body = append(body, sep, '"')
		sep = ','
		body = append(body, m.key...)
		body = append(body, '"', ':', '[')
		for j, row := range m.rows {
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, '"')
			body = wire.AppendRow(body, row)
			body = append(body, '"')
		}
		body = append(body, ']')
	}
	if len(rest) > len("{}") {
		body = append(body, ',')
	}
	body = append(body, rest[1:]...)
	return append(body, '}'), nil
}

// wrap puts op in the v1 envelope under this client's identity and
// ctx's deadline.
func (c *Client) wrap(ctx context.Context, op any) wire.Envelope[any] {
	return wire.Envelope[any]{
		ClientID:   c.clientID,
		Priority:   c.priority,
		DeadlineMS: deadlineMS(ctx),
		Op:         op,
	}
}

// post sends one enveloped op; see send.
func (c *Client) post(ctx context.Context, path string, op any, out any) error {
	body, err := json.Marshal(c.wrap(ctx, op))
	if err != nil {
		return fmt.Errorf("client: encoding op: %w", err)
	}
	return c.send(ctx, path, body, out)
}

// send posts one encoded envelope, retrying 429/503 with the server's
// Retry-After hint (falling back to a doubling backoff), never sleeping
// past the context deadline. out may be nil for replies with no body.
// send takes body over: it goes back to wire.BytePool once the last
// request that reads it is done with it, which may be after send
// returns.
func (c *Client) send(ctx context.Context, path string, body []byte, out any) error {
	sb := &sharedBody{b: body}
	sb.refs.Store(1)
	defer sb.release()
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		apiErr, err := c.once(ctx, http.MethodPost, path, sb, out)
		if err != nil {
			return err
		}
		if apiErr == nil {
			return nil
		}
		retryable := apiErr.Status == http.StatusTooManyRequests ||
			apiErr.Status == http.StatusServiceUnavailable
		if !retryable || attempt >= c.retries {
			return apiErr
		}
		sleep := apiErr.RetryAfter
		if sleep <= 0 {
			sleep = backoff
			backoff *= 2
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// once performs a single HTTP exchange; a non-2xx reply comes back as a
// *APIError so the retry loop can decide, transport failures as err.
// body may be nil (no request body).
func (c *Client) once(ctx context.Context, method, path string, body *sharedBody, out any) (*APIError, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		// The transport closes every body it takes, from Body and from
		// GetBody alike, possibly after Do returns. An explicit length
		// keeps the body off chunked encoding, so the server reads it
		// with one exact-size read.
		req.Body = body.reader()
		req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
		req.ContentLength = int64(len(body.b))
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
			return nil, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("client: decoding reply: %w", err)
		}
		return nil, nil
	}
	apiErr := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var ew wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&ew); err == nil && ew.Error != "" {
		apiErr.Message = ew.Error
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr, nil
}

// sharedBody is one encoded request body shared by its sender and every
// reader the transport takes of it. refs counts the sender's hold and
// each open reader; the last to let go returns the buffer to
// wire.BytePool.
type sharedBody struct {
	b    []byte
	refs atomic.Int32
}

// reader takes a new reader of the body, holding a reference until it is
// closed.
func (s *sharedBody) reader() *bodyReader {
	s.refs.Add(1)
	r := &bodyReader{s: s}
	r.rd.Reset(s.b)
	return r
}

// release drops one reference.
func (s *sharedBody) release() {
	if s.refs.Add(-1) == 0 {
		wire.BytePool.Put(s.b)
	}
}

// bodyReader is one read of a sharedBody. Its first Close drops its
// reference; the transport reads nothing after closing a body.
type bodyReader struct {
	rd     bytes.Reader
	s      *sharedBody
	closed atomic.Bool
}

func (r *bodyReader) Read(p []byte) (int, error) { return r.rd.Read(p) }

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.s.release()
	}
	return nil
}

// deadlineMS converts a context deadline into the envelope's remaining
// millisecond budget (0 = none), never rounding a live deadline to zero.
func deadlineMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}
