package cluster

import (
	"sync"
	"time"
)

// State is a member's position in the join → drain lifecycle.
type State int

const (
	// StateJoining: the member has registered but no health probe has
	// succeeded yet. It takes no sessions and no one-shot traffic.
	StateJoining State = iota
	// StateActive: probed healthy; the member owns ring keyspace and
	// receives both one-shot ops and new sessions.
	StateActive
	// StateDraining: the member finishes its pinned sessions and keeps
	// serving one-shot ops for them, but places no new sessions. Entered
	// by an operator drain or the worker announcing it in a heartbeat.
	StateDraining
	// StateGone: heartbeats expired or the drain completed and the worker
	// left. The member holds no keyspace; a rejoin starts over at joining.
	StateGone
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateGone:
		return "gone"
	}
	return "unknown"
}

// Capacity is the hint a worker carries when it joins: how much weight it
// wants on the ring and how many sessions it can hold.
type Capacity struct {
	// Weight scales the member's share of ring keyspace (vnodes×Weight
	// points). Values < 1 count as 1.
	Weight int
	// MaxSessions is the worker's session registry bound, reported for
	// operators; placement does not enforce it (the worker itself does,
	// by LRU-evicting at capacity).
	MaxSessions int
}

// Member is one worker's entry in the membership table.
type Member struct {
	Addr   string
	State  State
	Static bool // seeded from -workers; never expires by heartbeat age
	Capacity
	HeartbeatInterval time.Duration // what the worker promised; 0 for static seeds
	JoinedAt          time.Time
	LastHeartbeat     time.Time
	// incarnation identifies the worker process behind the latest join
	// or heartbeat that named one (0 = none named yet).
	incarnation uint64
}

// Table is the frontend's versioned membership view. Every mutation that
// changes placement inputs (state or weight) bumps the version, which is
// what lets the ring cache rebuild only on real change.
type Table struct {
	now func() time.Time // injectable for expiry tests

	mu      sync.Mutex
	version uint64
	members map[string]*Member
}

// NewTable returns an empty table at version 0.
func NewTable() *Table {
	return &Table{now: time.Now, members: make(map[string]*Member)}
}

// Seed installs static members (the -workers flag) directly as active:
// they predate self-registration, are assumed provisioned, and never
// expire by heartbeat age — the probe loop alone governs their routing.
func (t *Table) Seed(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for _, addr := range addrs {
		if _, ok := t.members[addr]; ok {
			continue
		}
		t.members[addr] = &Member{
			Addr:          addr,
			State:         StateActive,
			Static:        true,
			Capacity:      Capacity{Weight: 1},
			JoinedAt:      now,
			LastHeartbeat: now,
		}
		t.version++
	}
}

// Upsert records a join or heartbeat from addr and returns the member's
// resulting state plus whether this call created (or revived) it — the
// signal for the caller to wire up a probe loop and dispatch lane.
// A draining announcement is authoritative: the worker knows it is
// shutting down before any probe does. A heartbeat without draining from
// a gone member is a rejoin and starts over at joining, so a restarted
// worker is re-probed before it takes traffic again. From a draining
// member it is a rejoin only when it comes from a new process: its
// incarnation differs from the one the member last carried, or it names
// none (0). A heartbeat the same process sent before an operator drain
// reached it therefore leaves the drain in force.
func (t *Table) Upsert(addr string, cap Capacity, interval time.Duration, draining bool, incarnation uint64) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	m, ok := t.members[addr]
	if !ok {
		state := StateJoining
		if draining {
			state = StateDraining
		}
		t.members[addr] = &Member{
			Addr:              addr,
			State:             state,
			Capacity:          cap,
			HeartbeatInterval: interval,
			JoinedAt:          now,
			LastHeartbeat:     now,
			incarnation:       incarnation,
		}
		t.version++
		return state, true
	}
	restarted := incarnation == 0 || incarnation != m.incarnation
	if incarnation != 0 {
		m.incarnation = incarnation
	}
	m.LastHeartbeat = now
	if interval > 0 {
		m.HeartbeatInterval = interval
	}
	if cap.Weight != 0 && cap.Weight != m.Weight {
		m.Weight = cap.Weight
		t.version++
	}
	if cap.MaxSessions != 0 {
		m.MaxSessions = cap.MaxSessions
	}
	revived := false
	switch {
	case draining && m.State != StateDraining:
		m.State = StateDraining
		t.version++
	case !draining && m.State == StateDraining && restarted:
		// A new process joining without the draining flag has restarted
		// since it drained: treat as a fresh join. Only explicit
		// join/heartbeat traffic lands here (probes never Upsert), so a
		// drain in flight to the worker cannot be undone by a stale "ok"
		// probe, nor by a heartbeat of the process it is draining.
		m.State = StateJoining
		m.JoinedAt = now
		t.version++
		revived = true
	case !draining && m.State == StateGone:
		m.State = StateJoining
		m.JoinedAt = now
		t.version++
		revived = true
	}
	return m.State, revived
}

// Touch refreshes a member's liveness deadline without any state
// change: a passing health probe is direct evidence the member is alive,
// as strong as a heartbeat. Probes refresh through here so a member
// whose heartbeater is briefly starved (but whose healthz answers)
// never expires — Sweep only retires members that are BOTH silent and
// unprobeable. No version bump: placement inputs are unchanged.
func (t *Table) Touch(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.members[addr]; ok && m.State != StateGone {
		m.LastHeartbeat = t.now()
	}
}

// Activate promotes a joining member to active (its first successful
// health probe). Reports whether a transition happened.
func (t *Table) Activate(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[addr]
	if !ok || m.State != StateJoining {
		return false
	}
	m.State = StateActive
	t.version++
	return true
}

// SetDraining marks a member draining (operator-initiated). Reports
// whether the member exists and was not already draining or gone.
func (t *Table) SetDraining(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[addr]
	if !ok || m.State == StateDraining || m.State == StateGone {
		return false
	}
	m.State = StateDraining
	t.version++
	return true
}

// MarkGone retires a member. Reports whether a transition happened.
func (t *Table) MarkGone(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[addr]
	if !ok || m.State == StateGone {
		return false
	}
	m.State = StateGone
	t.version++
	return true
}

// Overdue lists dynamic members whose last heartbeat (or probe Touch)
// is older than miss intervals — expiry candidates. Static seeds are
// exempt (the probe loop owns their fate), as are members that never
// promised an interval. Overdue does not transition anyone: the caller
// cross-checks each candidate against probe health and retires it with
// MarkGone, so a member that is silent but still answering its healthz
// is never expired.
func (t *Table) Overdue(miss int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var overdue []string
	for _, m := range t.members {
		if m.Static || m.State == StateGone || m.HeartbeatInterval <= 0 {
			continue
		}
		if now.Sub(m.LastHeartbeat) > time.Duration(miss)*m.HeartbeatInterval {
			overdue = append(overdue, m.Addr)
		}
	}
	return overdue
}

// Version returns the table's current version.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Get returns a copy of addr's entry.
func (t *Table) Get(addr string) (Member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[addr]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// Snapshot returns the version and a copy of every member (gone included,
// for operator visibility; they age out of meaning, not out of the list).
func (t *Table) Snapshot() (uint64, []Member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, *m)
	}
	return t.version, out
}

// ActiveWeights returns the version plus the ring input: every active
// member's address and weight. Joining members hold no keyspace yet
// (unprobed), draining members are giving theirs up, gone members have
// none.
func (t *Table) ActiveWeights() (uint64, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	weights := make(map[string]int, len(t.members))
	for _, m := range t.members {
		if m.State != StateActive {
			continue
		}
		w := m.Weight
		if w < 1 {
			w = 1
		}
		weights[m.Addr] = w
	}
	return t.version, weights
}

// Counts returns how many members sit in each state.
func (t *Table) Counts() map[State]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[State]int, 4)
	for _, m := range t.members {
		counts[m.State]++
	}
	return counts
}
