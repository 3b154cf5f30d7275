package client

import (
	"context"
	"errors"

	"elsa"
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

type sessionStepQueryWire struct {
	ID string   `json:"id"`
	QP string   `json:"qp"`
	T  *float64 `json:"t,omitempty"`
}

type sessionStepWire struct {
	Queries []sessionStepQueryWire `json:"queries"`
	Packed  bool                   `json:"packed"`
}

type sessionStepReplyWire struct {
	Results []struct {
		sessionQueryReplyWire
		ContextPacked string `json:"context_packed"`
		Error         string `json:"error"`
	} `json:"results"`
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
	wire := sessionStepWire{Queries: make([]sessionStepQueryWire, len(queries)), Packed: true}
	for i, q := range queries {
		wire.Queries[i] = sessionStepQueryWire{ID: q.Session.ID(), QP: PackVec(q.Q)}
		if q.Thr != nil {
			wire.Queries[i].T = &q.Thr.T
		}
	}
	var reply sessionStepReplyWire
	if err := c.post(ctx, "/v1/sessions/step", wire, &reply); err != nil {
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
		out := r.Context
		if r.ContextPacked != "" {
			vec, err := UnpackVec(r.ContextPacked)
			if err != nil {
				results[i].Err = err
				continue
			}
			out = vec
		}
		results[i].QueryResult = QueryResult{
			Context:    out,
			Candidates: r.Candidates,
			Fallback:   r.Fallback,
			Len:        r.Len,
			Threshold:  elsa.Threshold{P: r.Threshold.P, T: r.Threshold.T, Queries: r.Threshold.Queries},
			BatchSize:  r.BatchSize,
		}
	}
	return results, nil
}
