package client

import (
	"context"
	"errors"

	"elsa"
	"elsa/internal/wire"
)

// StepQuery is one session's entry in a cross-session decode wave.
type StepQuery struct {
	Session *Session
	Q       []float32
	// Thr, when non-nil, overrides the session threshold for this query
	// only (its T is what rides the wire, as in Session.Query).
	Thr *elsa.Threshold
}

// StepResult is one wave entry's outcome: the usual query result, or
// Err when that entry alone failed (the rest of the wave still decoded).
type StepResult struct {
	QueryResult
	Err error
}

// Step decodes one token for many sessions in a single request — the
// client-side complement of the server's decode batching. The server
// queues the whole wave before it dispatches any of it, so it
// coalesces into shared batch dispatches, and the fixed per-request
// cost is paid once per wave instead of once per session. Vectors ride
// the wire packed (base64 float32, bit-exact) in both directions, since
// JSON float parsing would otherwise dominate a bulk wave. Results
// align 1:1 with queries; per-entry failures land in StepResult.Err
// without failing the wave.
func (c *Client) Step(ctx context.Context, queries []StepQuery) ([]StepResult, error) {
	op := wire.SessionStepRequest{Queries: make([]wire.SessionStepQuery, len(queries)), Packed: true}
	for i, q := range queries {
		op.Queries[i] = wire.SessionStepQuery{ID: q.Session.ID(), QPacked: PackVec(q.Q)}
		if q.Thr != nil {
			op.Queries[i].T = &q.Thr.T
		}
	}
	var reply wire.SessionStepResponse
	if err := c.post(ctx, "/v1/sessions/step", op, &reply); err != nil {
		return nil, err
	}
	if len(reply.Results) != len(queries) {
		return nil, errors.New("step reply does not align with the request's queries")
	}
	results := make([]StepResult, len(reply.Results))
	for i, r := range reply.Results {
		if r.Error != "" {
			results[i].Err = errors.New(r.Error)
			continue
		}
		if r.ContextPacked != "" {
			vec, err := UnpackVec(r.ContextPacked)
			if err != nil {
				results[i].Err = err
				continue
			}
			r.Context = vec
		}
		results[i].QueryResult = r.SessionQueryResponse
	}
	return results, nil
}
