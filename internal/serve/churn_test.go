package serve_test

// Membership-churn suite for the elastic control plane: workers joining
// mid-load, operator drains, heartbeat expiry — all against real
// serve.Servers over servetest's in-process listeners, run under -race.

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// dynamicFront is a frontend config with NO local replicas and no static
// workers: every member arrives via /v1/cluster/join.
func dynamicFront() serve.Config {
	return serve.Config{
		Replicas:            -1, // explicitly zero local replicas without -workers
		WorkerProbeInterval: 25 * time.Millisecond,
		RequestTimeout:      10 * time.Second,
	}
}

func dynamicWorker() serve.Config {
	return serve.Config{Replicas: 1}
}

// TestWorkerJoinsMidLoadReceivesTraffic starts a one-worker dynamic
// cluster, joins a second worker in the middle of a concurrent attend
// run, and requires the newcomer to serve traffic — ops and new sessions
// — without any frontend restart, with every result bit-identical to
// single-host.
func TestWorkerJoinsMidLoadReceivesTraffic(t *testing.T) {
	ops := rtOps(60)
	want := singleHostResults(t, ops)

	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	c := client.New(cl.URL())
	var wg sync.WaitGroup
	var joinOnce sync.Once
	errs := make([]error, len(ops))
	got := make([]*client.Result, len(ops))
	joined := make(chan error, 1)
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == len(ops)/2 {
				joinOnce.Do(func() {
					_, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second)
					joined <- err
				})
			}
			got[i], errs[i] = c.Attend(context.Background(), ops[i][0], ops[i][1], ops[i][2],
				client.AttendOptions{HeadDim: rtDim})
		}(i)
	}
	wg.Wait()
	if err := <-joined; err != nil {
		t.Fatalf("mid-load join: %v", err)
	}
	for i := range ops {
		if errs[i] != nil {
			t.Fatalf("op %d failed during membership churn: %v", i, errs[i])
		}
		if !sameContext(got[i], want[i]) {
			t.Fatalf("op %d: result during churn differs from single-host", i)
		}
	}

	// The joined worker takes one-shot traffic...
	newcomer := cl.Workers[1]
	deadline := time.Now().Add(5 * time.Second)
	for newcomer.Served() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joined worker never served an op")
		}
		for _, op := range ops[:10] {
			if _, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// ...and owns session keyspace: across 30 fresh sessions the ring
	// must place some on it.
	for i := 0; i < 30; i++ {
		if _, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim}); err != nil {
			t.Fatalf("session %d during churn: %v", i, err)
		}
	}
	view, err := client.New(cl.URL()).Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]int{}
	for _, m := range view.Members {
		pinned[m.Addr] = m.PinnedSessions
	}
	if pinned[newcomer.URL()] == 0 {
		t.Errorf("joined worker holds no sessions out of 30 placed: %v", pinned)
	}
}

// TestMemberDrainFinishesPinnedSessions drains one member of a
// two-worker cluster mid-life: its pinned sessions must keep serving
// (results bit-identical to an undisturbed reference), zero new sessions
// may land on it, and nothing across the whole exercise answers a
// non-drain 5xx.
func TestMemberDrainFinishesPinnedSessions(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// A reference standalone server mirrors every session op for the
	// bit-identity check.
	ref := servetest.NewWorker(serve.Config{Replicas: 1})
	defer ref.Close()
	refCli := client.New(ref.URL())

	c := client.New(cl.URL())
	type pair struct{ sess, mirror *client.Session }
	var pairs []pair
	key := func(i, j int) []float32 {
		v := make([]float32, rtDim)
		v[i%rtDim] = 1
		v[(i+j)%rtDim] = 0.5
		return v
	}
	newPair := func() pair {
		s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 7})
		if err != nil {
			t.Fatalf("session create: %v", err)
		}
		m, err := refCli.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 7})
		if err != nil {
			t.Fatalf("reference session create: %v", err)
		}
		return pair{s, m}
	}
	stepAll := func(round int) {
		t.Helper()
		for i, p := range pairs {
			k := key(i, round)
			if _, err := p.sess.Append(context.Background(), k, k); err != nil {
				t.Fatalf("append session %d round %d: %v", i, round, err)
			}
			if _, err := p.mirror.Append(context.Background(), k, k); err != nil {
				t.Fatalf("append mirror %d round %d: %v", i, round, err)
			}
			got, err := p.sess.Query(context.Background(), k, elsa.Overrides{})
			if err != nil {
				t.Fatalf("query session %d round %d: %v", i, round, err)
			}
			wantQ, err := p.mirror.Query(context.Background(), k, elsa.Overrides{})
			if err != nil {
				t.Fatalf("query mirror %d round %d: %v", i, round, err)
			}
			for j := range wantQ.Context {
				if got.Context[j] != wantQ.Context[j] {
					t.Fatalf("session %d round %d: context[%d] = %v, want %v (not bit-identical)", i, round, j, got.Context[j], wantQ.Context[j])
				}
			}
		}
	}

	// Place sessions until both workers hold some.
	pinnedOn := func() map[string]int {
		t.Helper()
		view, err := c.Cluster(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, m := range view.Members {
			out[m.Addr] = m.PinnedSessions
		}
		return out
	}
	for i := 0; i < 40; i++ {
		pairs = append(pairs, newPair())
		p := pinnedOn()
		if len(pairs) >= 4 && p[cl.Workers[0].URL()] > 0 && p[cl.Workers[1].URL()] > 0 {
			break
		}
	}
	before := pinnedOn()
	victim := cl.Workers[0].URL()
	if before[victim] == 0 {
		t.Fatalf("no sessions pinned to %s after %d creates: %v", victim, len(pairs), before)
	}
	stepAll(0)

	status, err := cl.DrainMember(context.Background(), victim)
	if err != nil {
		t.Fatalf("drain member: %v", err)
	}
	if status.State != "draining" {
		t.Fatalf("drain reply state = %q, want draining", status.State)
	}
	if !status.Forwarded {
		t.Error("drain was not forwarded to the worker's own /v1/drain")
	}

	// Pinned sessions keep flowing through the draining member,
	// bit-identical to the reference.
	stepAll(1)
	stepAll(2)

	// New sessions must all land elsewhere.
	for i := 0; i < 20; i++ {
		if _, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 7}); err != nil {
			t.Fatalf("post-drain session create %d: %v", i, err)
		}
	}
	after := pinnedOn()
	if after[victim] > before[victim] {
		t.Fatalf("draining member gained sessions: %d -> %d", before[victim], after[victim])
	}

	// The worker itself refuses direct creates with the drain 503 — the
	// only 5xx this exercise should ever produce.
	_, err = client.New(victim).NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim})
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("direct create on draining worker: want 503, got %v", err)
	}

	// Closing the pinned sessions completes the drain's work; the member
	// reports zero pinned.
	for _, p := range pairs {
		if err := p.sess.Close(context.Background()); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if got := pinnedOn()[victim]; got != 0 {
		t.Fatalf("draining member still reports %d pinned sessions after closes", got)
	}
}

// TestHeartbeatExpiryMarksMemberGone joins a worker that then silently
// stops heartbeating (a crashed host): the frontend must expire it to
// gone within a few missed intervals while the survivor keeps serving.
func TestHeartbeatExpiryMarksMemberGone(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ghost, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	ghost.Leave()
	ghost.SetDown(true) // probes fail too; only heartbeat age expires members
	if err := cl.WaitState(ghost.URL(), "gone", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := metricTotal(cl.Frontend.Metrics(), "elsa_serve_cluster_expired_total"); n == 0 {
		t.Error("expiry counter never moved")
	}

	// The survivor still serves every op.
	c := client.New(cl.URL())
	for i, op := range rtOps(20) {
		if _, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim}); err != nil {
			t.Fatalf("op %d after member expiry: %v", i, err)
		}
	}

	// A revived worker rejoins through the same path and serves again.
	ghost.SetDown(false)
	ghost.Join(cl.URL(), 25*time.Millisecond)
	if err := cl.WaitState(ghost.URL(), "active", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	served := ghost.Served()
	deadline := time.Now().Add(5 * time.Second)
	ops := rtOps(10)
	for ghost.Served() == served {
		if time.Now().After(deadline) {
			t.Fatal("rejoined worker got no traffic")
		}
		for _, op := range ops {
			if _, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestServerDrainLifecycle drains a standalone server directly: new
// sessions answer 503 with Retry-After, existing sessions keep serving,
// healthz flips to "draining", and the drain timeout force-expires
// stragglers.
func TestServerDrainLifecycle(t *testing.T) {
	w := servetest.NewWorker(serve.Config{
		Replicas:     1,
		DrainTimeout: 400 * time.Millisecond,
	})
	defer w.Close()
	c := client.New(w.URL())

	s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim})
	if err != nil {
		t.Fatal(err)
	}
	k := make([]float32, rtDim)
	k[0] = 1
	if _, err := s.Append(context.Background(), k, k); err != nil {
		t.Fatal(err)
	}

	st, err := c.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !st.Draining || st.Sessions != 1 {
		t.Fatalf("drain status = %+v, want draining with 1 session", st)
	}

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status = %q during drain, want draining", h.Status)
	}

	// New sessions are refused with the shed taxonomy, not a hang.
	_, err = c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim})
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: want 503, got %v", err)
	}
	if api.RetryAfter <= 0 {
		t.Error("drain 503 carried no Retry-After")
	}

	// The pinned session still serves...
	if _, err := s.Query(context.Background(), k, elsa.Overrides{}); err != nil {
		t.Fatalf("query during drain: %v", err)
	}

	// ...until the timeout force-expires it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Sessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timeout never expired the session (still %d live)", h.Sessions)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFrontendHealthzReportsMembership checks the frontend healthz gains
// members/draining once a fleet exists.
func TestFrontendHealthzReportsMembership(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c := client.New(cl.URL())
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Members != 2 || h.Draining != 0 {
		t.Fatalf("healthz members/draining = %d/%d, want 2/0", h.Members, h.Draining)
	}
	if _, err := cl.DrainMember(context.Background(), cl.Workers[0].URL()); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Members != 2 || h.Draining != 1 {
		t.Fatalf("healthz members/draining after drain = %d/%d, want 2/1", h.Members, h.Draining)
	}
}
