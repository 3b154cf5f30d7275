package client

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"elsa/internal/wire"
)

// JoinRequest registers (or heartbeats) a worker with a frontend's
// cluster membership. Addr is the worker's advertised base URL or
// host:port — what the frontend dials back to probe and dispatch.
type JoinRequest struct {
	Addr        string
	Weight      int
	MaxSessions int
	// HeartbeatInterval is the cadence the worker promises to re-join
	// at; missing ~3 intervals expires the member. Zero means "never
	// expire me" — the frontend's probe loop alone governs routing.
	HeartbeatInterval time.Duration
	// Draining announces the worker is draining, so the frontend stops
	// placing new sessions on it while pinned ones finish.
	Draining bool
	// Incarnation identifies the worker process: one nonzero value for
	// the process's lifetime, a new one after a restart. A frontend
	// revives a draining member only for a heartbeat of a new
	// incarnation, so a beat that crosses an operator drain cannot undo
	// it. Zero names none and keeps the older rule: any beat without
	// Draining revives.
	Incarnation uint64
}

// JoinReply is the frontend's answer to a Join: the member's state
// ("joining", "active" or "draining"), the membership count and the
// table version after the join.
type JoinReply = wire.JoinResponse

// MemberInfo is one cluster member as a frontend reports it (a v1
// `targets` entry): placement state, capacity, liveness, and how many
// sessions the frontend still holds pinned to it. Static marks members
// seeded from the frontend's -workers flags; a controller can drain but
// not scale them away.
type MemberInfo = wire.ClusterTarget

// ClusterSignals is the frontend's load-signal block: what an autoscale
// controller watches. Rates are windowed (events/s over the last ~1s),
// not lifetime averages; controllers should watch ShedRateByClass, not
// the lifetime ShedsByClass.
type ClusterSignals = wire.ClusterSignals

// ClusterInfo is the typed GET /v1/cluster view: the versioned
// membership table (Members, the `targets` block) plus the signals
// block.
type ClusterInfo = wire.ClusterResponse

// DrainStatus reports a server's own drain state (POST /v1/drain).
type DrainStatus = wire.DrainResponse

// MemberDrainStatus reports the start of an operator-initiated drain of
// one cluster member (POST /v1/cluster/drain). Forwarded is whether the
// worker's own /v1/drain accepted the signal; false leaves the
// frontend-side drain in force regardless.
type MemberDrainStatus = wire.ClusterDrainResponse

// MemberRebalanceStatus reports one proactive rebalance toward a member
// (POST /v1/cluster/rebalance).
type MemberRebalanceStatus = wire.ClusterRebalanceResponse

// Join registers the worker described by req with the frontend this
// client points at. Workers call it once to join and then repeatedly as
// their heartbeat; both are the same idempotent request.
func (c *Client) Join(ctx context.Context, req JoinRequest) (*JoinReply, error) {
	op := wire.JoinRequest{
		Addr:        req.Addr,
		Weight:      req.Weight,
		MaxSessions: req.MaxSessions,
		HeartbeatMS: req.HeartbeatInterval.Milliseconds(),
		Draining:    req.Draining,
		Incarnation: req.Incarnation,
	}
	var reply JoinReply
	if err := c.post(ctx, "/v1/cluster/join", op, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Cluster fetches the frontend's cluster view: membership targets plus
// the autoscale signals block. A reply without schema_version >= 1 comes
// from a server that predates the versioned view and is an error.
func (c *Client) Cluster(ctx context.Context) (*ClusterInfo, error) {
	var info ClusterInfo
	apiErr, err := c.once(ctx, http.MethodGet, "/v1/cluster", nil, &info)
	if err != nil {
		return nil, err
	}
	if apiErr != nil {
		return nil, apiErr
	}
	if info.SchemaVersion < 1 {
		return nil, fmt.Errorf("GET /v1/cluster: unsupported schema_version %d (want >= 1)", info.SchemaVersion)
	}
	return &info, nil
}

// Drain puts the server this client points at into drain mode: it stops
// accepting new sessions, keeps serving existing ones, and reports
// Status "draining" on /v1/healthz. Idempotent — re-calling reports how
// many sessions remain.
func (c *Client) Drain(ctx context.Context) (*DrainStatus, error) {
	var status DrainStatus
	if err := c.post(ctx, "/v1/drain", struct{}{}, &status); err != nil {
		return nil, err
	}
	return &status, nil
}

// DrainMember asks a frontend to drain one cluster member: the member
// stops receiving new sessions and one-shot traffic immediately, its
// pinned sessions keep flowing until they finish or expire, and the
// drain signal is forwarded to the worker itself best-effort.
func (c *Client) DrainMember(ctx context.Context, addr string) (*MemberDrainStatus, error) {
	var status MemberDrainStatus
	if err := c.post(ctx, "/v1/cluster/drain", wire.ClusterDrainRequest{Addr: addr}, &status); err != nil {
		return nil, err
	}
	return &status, nil
}

// RebalanceMember asks a frontend to proactively migrate pinned sessions
// toward one member: sessions whose consistent-hash placement prefers
// the member (typically a fresh joiner) move onto it through the live
// export/import path. max > 0 bounds the number of moves; max <= 0 moves
// every session placement prefers there.
func (c *Client) RebalanceMember(ctx context.Context, addr string, max int) (*MemberRebalanceStatus, error) {
	var status MemberRebalanceStatus
	if err := c.post(ctx, "/v1/cluster/rebalance", wire.ClusterRebalanceRequest{Addr: addr, Max: max}, &status); err != nil {
		return nil, err
	}
	return &status, nil
}
