// Package client is the Go client for the elsaserve HTTP API. It speaks
// the v1 request envelope (client identity, priority class, deadline
// budget wrapped around each op), retries throttled requests honouring
// the server's Retry-After hint, and exposes decode sessions as a
// handle so callers never hand-roll endpoint JSON.
//
// The package deliberately defines its own wire structs rather than
// importing the server's: the server lives under internal/ and this is
// the supported external surface.
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
	"time"

	"elsa"
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
type Health struct {
	Status         string `json:"status"`
	Engines        int    `json:"engines"`
	Sessions       int    `json:"sessions"`
	Role           string `json:"role,omitempty"`
	Workers        int    `json:"workers,omitempty"`
	HealthyWorkers int    `json:"healthy_workers,omitempty"`
	Members        int    `json:"members,omitempty"`
	Draining       int    `json:"draining,omitempty"`
}

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

// envelope mirrors the server's v1 request envelope. Op holds the op
// struct itself, so a request body is marshaled in one pass.
type envelope struct {
	ClientID   string `json:"client_id,omitempty"`
	Priority   string `json:"priority,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	Op         any    `json:"op"`
}

// attendWire is the /v1/attend op's scalar fields. attendBody writes
// Q/K/V ahead of them as packed rows (qp, kp, vp), which also makes the
// server answer with context_packed.
type attendWire struct {
	P         float64  `json:"p,omitempty"`
	T         *float64 `json:"t,omitempty"`
	HeadDim   int      `json:"head_dim,omitempty"`
	HashBits  int      `json:"hash_bits,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Quantized bool     `json:"quantized,omitempty"`
	Backend   string   `json:"backend,omitempty"`
}

type thresholdWire struct {
	P       float64 `json:"p"`
	T       float64 `json:"t"`
	Queries int     `json:"queries,omitempty"`
}

type attendReplyWire struct {
	Context           [][]float32   `json:"context"`
	ContextPacked     []string      `json:"context_packed"`
	CandidateFraction float64       `json:"candidate_fraction"`
	FallbackQueries   int           `json:"fallback_queries"`
	Threshold         thresholdWire `json:"threshold"`
	BatchSize         int           `json:"batch_size"`
}

type errorWire struct {
	Error string `json:"error"`
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
	var reply attendReplyWire
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
		Threshold:         elsa.Threshold{P: reply.Threshold.P, T: reply.Threshold.T, Queries: reply.Threshold.Queries},
		BatchSize:         reply.BatchSize,
	}, nil
}

// attendBody is the /v1/attend body for env (whose Op must be nil)
// around the op q, k, v, opts: byte for byte what json.Marshal writes
// for an op struct whose leading fields qp, kp and vp hold PackRows of q,
// k and v, followed by attendWire's fields.
func attendBody(env envelope, q, k, v [][]float32, opts AttendOptions) ([]byte, error) {
	wire := attendWire{
		P:         opts.P,
		HeadDim:   opts.HeadDim,
		HashBits:  opts.HashBits,
		Seed:      opts.Seed,
		Quantized: opts.Quantized,
		Backend:   opts.Backend,
	}
	if opts.Thr != nil {
		wire.P = opts.Thr.P
		wire.T = &opts.Thr.T
	}
	return packedBody(env, []packedMember{{"qp", q}, {"kp", k}, {"vp", v}}, wire)
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
// through json.Marshal.
func packedBody(env envelope, members []packedMember, tail any) ([]byte, error) {
	head, err := json.Marshal(env) // ends in "op":null}
	if err != nil {
		return nil, fmt.Errorf("client: encoding op: %w", err)
	}
	rest, err := json.Marshal(tail) // {} or {"p":...}
	if err != nil {
		return nil, fmt.Errorf("client: encoding op: %w", err)
	}
	head = head[:len(head)-len("null}")]
	size, widest := len(head)+len("}")+len(rest), 0
	for _, m := range members {
		size += len(`,"":[]`) + len(m.key)
		for _, row := range m.rows {
			size += len(`"",`) + base64.StdEncoding.EncodedLen(4*len(row))
			widest = max(widest, 4*len(row))
		}
	}
	body := make([]byte, 0, size)
	raw := make([]byte, 0, widest)
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
			raw = appendLE(raw[:0], row)
			body = append(body, '"')
			body = base64.StdEncoding.AppendEncode(body, raw)
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
func (c *Client) wrap(ctx context.Context, op any) envelope {
	return envelope{
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
func (c *Client) send(ctx context.Context, path string, body []byte, out any) error {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		apiErr, err := c.once(ctx, http.MethodPost, path, body, out)
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
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (*APIError, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
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
	var ew errorWire
	if err := json.NewDecoder(resp.Body).Decode(&ew); err == nil && ew.Error != "" {
		apiErr.Message = ew.Error
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr, nil
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
