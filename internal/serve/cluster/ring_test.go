package cluster

import (
	"fmt"
	"testing"
	"time"
)

func ringMembers(n int) map[string]int {
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("http://worker-%d:8080", i)] = 1
	}
	return m
}

func TestRingLookupDeterministic(t *testing.T) {
	a := NewRing(ringMembers(5), 0)
	b := NewRing(ringMembers(5), 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("session-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("two rings over the same members disagree on %q: %q vs %q",
				key, a.Lookup(key), b.Lookup(key))
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Lookup("anything"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	if got := empty.Successors("anything", 3); got != nil {
		t.Fatalf("empty ring Successors = %v, want nil", got)
	}
	single := NewRing(map[string]int{"only": 1}, 0)
	for i := 0; i < 50; i++ {
		if got := single.Lookup(fmt.Sprintf("k%d", i)); got != "only" {
			t.Fatalf("single-member ring Lookup = %q, want only", got)
		}
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	r := NewRing(ringMembers(6), 0)
	succ := r.Successors("some-session", 4)
	if len(succ) != 4 {
		t.Fatalf("Successors returned %d members, want 4", len(succ))
	}
	seen := map[string]bool{}
	for _, m := range succ {
		if seen[m] {
			t.Fatalf("Successors repeated member %q: %v", m, succ)
		}
		seen[m] = true
	}
	if succ[0] != r.Lookup("some-session") {
		t.Fatalf("Successors[0] = %q, want the owner %q", succ[0], r.Lookup("some-session"))
	}
	// Asking for more members than exist returns all of them, once each.
	all := r.Successors("some-session", 100)
	if len(all) != 6 {
		t.Fatalf("Successors(max=100) returned %d members, want 6", len(all))
	}
}

// TestRingMinimalRemap is the acceptance criterion for placement
// stability: removing one of N members must remap at most 2/N (+ slack)
// of session keys. With vnodes high enough the removed member's ~1/N
// share spreads across survivors and nothing else moves.
func TestRingMinimalRemap(t *testing.T) {
	const keys = 4000
	for _, n := range []int{4, 6, 10} {
		members := ringMembers(n)
		before := NewRing(members, 0)
		removed := fmt.Sprintf("http://worker-%d:8080", 0)
		delete(members, removed)
		after := NewRing(members, 0)

		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("session-%032d", i)
			was, is := before.Lookup(key), after.Lookup(key)
			if was == is {
				continue
			}
			if was != removed {
				// A key not owned by the removed member changed owner:
				// that is exactly the churn consistent hashing must avoid.
				t.Errorf("n=%d: key %q moved %q -> %q though %q was removed",
					n, key, was, is, removed)
				if moved > 5 {
					t.FailNow()
				}
			}
			moved++
		}
		bound := int(float64(keys)*2.0/float64(n)) + keys/20 // 2/N plus 5% slack
		if moved > bound {
			t.Errorf("n=%d: removing one member remapped %d/%d keys, want <= %d",
				n, moved, keys, bound)
		}
		t.Logf("n=%d: %d/%d keys remapped (bound %d)", n, moved, keys, bound)
	}
}

// TestRingWeightSkew checks a weight-2 member owns roughly twice the
// keyspace of a weight-1 member — capacity hints must actually matter.
func TestRingWeightSkew(t *testing.T) {
	r := NewRing(map[string]int{"big": 2, "small-a": 1, "small-b": 1}, 0)
	counts := map[string]int{}
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	big := float64(counts["big"]) / keys
	if big < 0.35 || big > 0.65 {
		t.Fatalf("weight-2 member owns %.2f of keyspace, want ~0.50: %v", big, counts)
	}
}

func TestTableLifecycle(t *testing.T) {
	tb := NewTable()
	now := time.Unix(1000, 0)
	tb.now = func() time.Time { return now }

	state, v1, created := tb.Upsert("http://w1", Capacity{Weight: 1, MaxSessions: 64}, 50*time.Millisecond, false, 0)
	if !created || state != StateJoining || v1 != tb.Version() {
		t.Fatalf("first Upsert = (%v, %d, %v), want (joining, %d, true)", state, v1, created, tb.Version())
	}
	if _, weights := tb.ActiveWeights(); len(weights) != 0 {
		t.Fatalf("joining member already on ring: %v", weights)
	}
	if !tb.Activate("http://w1") {
		t.Fatal("Activate on joining member returned false")
	}
	if tb.Activate("http://w1") {
		t.Fatal("second Activate reported a transition")
	}
	if tb.Version() <= v1 {
		t.Fatal("Activate did not bump version")
	}
	if _, weights := tb.ActiveWeights(); weights["http://w1"] != 1 {
		t.Fatalf("active member missing from ring input: %v", weights)
	}

	// A heartbeat refreshes without bumping version or state.
	v2 := tb.Version()
	state, v, created := tb.Upsert("http://w1", Capacity{Weight: 1}, 50*time.Millisecond, false, 0)
	if created || state != StateActive || tb.Version() != v2 || v != v2 {
		t.Fatalf("steady heartbeat = (%v, %d, %v) at table version %d, want (active, %d, false)",
			state, v, created, tb.Version(), v2)
	}

	// The worker announces draining: authoritative, leaves the ring.
	state, _, _ = tb.Upsert("http://w1", Capacity{}, 50*time.Millisecond, true, 0)
	if state != StateDraining {
		t.Fatalf("draining heartbeat state = %v, want draining", state)
	}
	if _, weights := tb.ActiveWeights(); len(weights) != 0 {
		t.Fatalf("draining member still on ring: %v", weights)
	}

	// A non-draining heartbeat afterwards is a restart: back to joining.
	state, _, revived := tb.Upsert("http://w1", Capacity{}, 50*time.Millisecond, false, 0)
	if state != StateJoining || !revived {
		t.Fatalf("post-drain heartbeat = (%v, %v), want (joining, true)", state, revived)
	}
}

func TestTableSweepExpiresDynamicOnly(t *testing.T) {
	tb := NewTable()
	now := time.Unix(1000, 0)
	tb.now = func() time.Time { return now }

	tb.Seed([]string{"http://static"})
	tb.Upsert("http://dyn", Capacity{Weight: 1}, 100*time.Millisecond, false, 0)
	tb.Activate("http://dyn")

	// Inside the miss budget nothing is overdue.
	now = now.Add(250 * time.Millisecond)
	if over := tb.Overdue(3); len(over) != 0 {
		t.Fatalf("Overdue inside budget reported %v", over)
	}
	// Past 3 missed intervals the dynamic member is a candidate; the
	// static seed never is. Overdue itself transitions nobody.
	now = now.Add(200 * time.Millisecond)
	over := tb.Overdue(3)
	if len(over) != 1 || over[0] != "http://dyn" {
		t.Fatalf("Overdue = %v, want [http://dyn]", over)
	}
	if m, _ := tb.Get("http://dyn"); m.State != StateActive {
		t.Fatalf("Overdue transitioned the member to %v; expiry is MarkGone's job", m.State)
	}
	if !tb.MarkGone("http://dyn") {
		t.Fatal("MarkGone on the overdue member reported no transition")
	}
	if m, _ := tb.Get("http://static"); m.State != StateActive {
		t.Fatalf("static seed state = %v after sweep, want active", m.State)
	}
	if m, _ := tb.Get("http://dyn"); m.State != StateGone {
		t.Fatalf("expired member state = %v, want gone", m.State)
	}

	// A gone member rejoining starts over at joining.
	state, _, revived := tb.Upsert("http://dyn", Capacity{Weight: 1}, 100*time.Millisecond, false, 0)
	if state != StateJoining || !revived {
		t.Fatalf("rejoin after gone = (%v, %v), want (joining, true)", state, revived)
	}
}

func TestTableTouchDefersSweep(t *testing.T) {
	tb := NewTable()
	now := time.Unix(1000, 0)
	tb.now = func() time.Time { return now }

	tb.Upsert("http://dyn", Capacity{Weight: 1}, 100*time.Millisecond, false, 0)
	tb.Activate("http://dyn")
	v := tb.Version()

	// A probe-driven Touch inside the window keeps deferring expiry,
	// without bumping the version (no placement input changed).
	for i := 0; i < 5; i++ {
		now = now.Add(250 * time.Millisecond)
		tb.Touch("http://dyn")
		if over := tb.Overdue(3); len(over) != 0 {
			t.Fatalf("touched member overdue on round %d: %v", i, over)
		}
	}
	if tb.Version() != v {
		t.Fatal("Touch bumped the table version")
	}

	// Once touches stop, expiry proceeds on schedule.
	now = now.Add(450 * time.Millisecond)
	if over := tb.Overdue(3); len(over) != 1 || over[0] != "http://dyn" {
		t.Fatalf("Overdue after touches stopped = %v, want [http://dyn]", over)
	}
	tb.MarkGone("http://dyn")
	// Touching a gone member does not resurrect it.
	tb.Touch("http://dyn")
	if m, _ := tb.Get("http://dyn"); m.State != StateGone {
		t.Fatalf("gone member state after Touch = %v, want gone", m.State)
	}
}

func TestTableSeedIdempotentAndCounts(t *testing.T) {
	tb := NewTable()
	tb.Seed([]string{"http://a", "http://b"})
	v := tb.Version()
	tb.Seed([]string{"http://a", "http://b"})
	if tb.Version() != v {
		t.Fatal("re-seeding existing members bumped version")
	}
	tb.Upsert("http://c", Capacity{}, time.Second, false, 0)
	tb.SetDraining("http://b")
	counts := tb.Counts()
	if counts[StateActive] != 1 || counts[StateJoining] != 1 || counts[StateDraining] != 1 {
		t.Fatalf("Counts = %v, want 1 active / 1 joining / 1 draining", counts)
	}
	_, members := tb.Snapshot()
	if len(members) != 3 {
		t.Fatalf("Snapshot has %d members, want 3", len(members))
	}
}

// TestTableStaleHeartbeatKeepsOperatorDrain: a heartbeat the worker sent
// before an operator drain reached it carries no draining flag but the
// same incarnation, and must leave the member draining; only a heartbeat
// from a new incarnation (a restarted process) revives it.
func TestTableStaleHeartbeatKeepsOperatorDrain(t *testing.T) {
	tb := NewTable()
	tb.Upsert("http://w1", Capacity{Weight: 1}, 50*time.Millisecond, false, 7)
	tb.Activate("http://w1")
	if !tb.SetDraining("http://w1") {
		t.Fatal("operator drain reported no transition")
	}
	v := tb.Version()

	state, _, revived := tb.Upsert("http://w1", Capacity{}, 50*time.Millisecond, false, 7)
	if state != StateDraining || revived || tb.Version() != v {
		t.Fatalf("stale heartbeat = (%v, %v) version %d, want (draining, false) version %d",
			state, revived, tb.Version(), v)
	}
	if _, weights := tb.ActiveWeights(); len(weights) != 0 {
		t.Fatalf("drained member back on the ring: %v", weights)
	}
	if state, _, _ = tb.Upsert("http://w1", Capacity{}, 50*time.Millisecond, true, 7); state != StateDraining {
		t.Fatalf("draining heartbeat state = %v, want draining", state)
	}

	state, _, revived = tb.Upsert("http://w1", Capacity{}, 50*time.Millisecond, false, 8)
	if state != StateJoining || !revived {
		t.Fatalf("heartbeat of a new incarnation = (%v, %v), want (joining, true)", state, revived)
	}
}
