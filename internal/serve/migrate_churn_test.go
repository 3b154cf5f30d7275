package serve_test

// Migration-churn suite for portable session state: export/import round
// trips over HTTP, idle-spill to the state dir with transparent
// rehydration, drain-time live migration, and worker-loss recovery from
// the frontend's shadow mirrors — all against real serve.Servers over
// servetest's in-process listeners, run under -race.

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// mcKey builds a deterministic unit-ish vector so every test in this
// file appends the same token sequence for a given (i, round).
func mcKey(i, round int) []float32 {
	v := make([]float32, rtDim)
	v[i%rtDim] = 1
	v[(i+round)%rtDim] = 0.5
	return v
}

// TestSessionExportImportRoundTrip moves one session between two
// standalone servers by hand: export on A, import on B, and require the
// decode answers to be bit-identical — the HTTP-level contract live
// migration is built on. A duplicate import must refuse with 409 rather
// than clobber live state.
func TestSessionExportImportRoundTrip(t *testing.T) {
	a := servetest.NewWorker(serve.Config{Replicas: 1})
	defer a.Close()
	b := servetest.NewWorker(serve.Config{Replicas: 1})
	defer b.Close()

	ca, cb := client.New(a.URL()), client.New(b.URL())
	s, err := ca.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const tokens = 50
	for i := 0; i < tokens; i++ {
		k := mcKey(i, 0)
		if _, err := s.Append(context.Background(), k, k); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	q := mcKey(3, 7)
	want, err := s.Query(context.Background(), q, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Export(context.Background())
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if st.Len != tokens {
		t.Fatalf("exported len = %d, want %d", st.Len, tokens)
	}
	if st.HeadDim != rtDim || st.Seed != 9 {
		t.Fatalf("exported config = (d=%d seed=%d), want (d=%d seed=9)", st.HeadDim, st.Seed, rtDim)
	}

	s2, err := cb.ImportSession(context.Background(), st)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if s2.ID() != s.ID() {
		t.Fatalf("imported session ID = %q, want original %q", s2.ID(), s.ID())
	}
	got, err := s2.Query(context.Background(), q, elsa.Overrides{})
	if err != nil {
		t.Fatalf("query after import: %v", err)
	}
	if got.Len != tokens {
		t.Fatalf("imported session len = %d, want %d", got.Len, tokens)
	}
	for j := range want.Context {
		if got.Context[j] != want.Context[j] {
			t.Fatalf("context[%d] = %v after import, want %v (not bit-identical)", j, got.Context[j], want.Context[j])
		}
	}

	// The imported session keeps decoding: appends and queries still track
	// the original if the same tokens land on both.
	k := mcKey(5, 1)
	if _, err := s.Append(context.Background(), k, k); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Append(context.Background(), k, k); err != nil {
		t.Fatal(err)
	}
	want2, err := s.Query(context.Background(), q, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s2.Query(context.Background(), q, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range want2.Context {
		if got2.Context[j] != want2.Context[j] {
			t.Fatalf("post-import decode diverged at context[%d]", j)
		}
	}

	// Importing the same state twice is a conflict, not a silent overwrite.
	_, err = cb.ImportSession(context.Background(), st)
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusConflict {
		t.Fatalf("duplicate import: want 409, got %v", err)
	}
}

// TestSessionSpillRehydrateBitIdentical lets an idle session spill out
// to the state dir, then queries it again: the rehydrated stream must
// answer bit-identically to the pre-spill stream, and the spill/
// rehydrate counters must both move.
func TestSessionSpillRehydrateBitIdentical(t *testing.T) {
	w := servetest.NewWorker(serve.Config{
		Replicas:     1,
		StateDir:     t.TempDir(),
		SessionSpill: 40 * time.Millisecond,
	})
	defer w.Close()
	c := client.New(w.URL())

	s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		k := mcKey(i, 0)
		if _, err := s.Append(context.Background(), k, k); err != nil {
			t.Fatal(err)
		}
	}
	q := mcKey(2, 5)
	want, err := s.Query(context.Background(), q, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}

	m := w.Server().Metrics()
	deadline := time.Now().Add(5 * time.Second)
	for metricTotal(m, "elsa_serve_sessions_spilled_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never spilled to the state dir")
		}
		time.Sleep(10 * time.Millisecond)
	}

	got, err := s.Query(context.Background(), q, elsa.Overrides{})
	if err != nil {
		t.Fatalf("query after spill: %v", err)
	}
	for j := range want.Context {
		if got.Context[j] != want.Context[j] {
			t.Fatalf("rehydrated context[%d] = %v, want %v (not bit-identical)", j, got.Context[j], want.Context[j])
		}
	}
	if metricTotal(m, "elsa_serve_sessions_rehydrated_total") == 0 {
		t.Error("rehydrate counter never moved")
	}
}

// TestMemberDrainRelocatesPinnedSessions drains a member that holds live
// sessions: the drain reply must report them relocated, the member must
// hold zero pinned sessions immediately (no waiting them out), and every
// relocated session must keep answering bit-identically to an
// undisturbed reference — with no 5xx anywhere.
func TestMemberDrainRelocatesPinnedSessions(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ref := servetest.NewWorker(serve.Config{Replicas: 1})
	defer ref.Close()
	refCli := client.New(ref.URL())
	c := client.New(cl.URL())

	type pair struct{ sess, mirror *client.Session }
	var pairs []pair
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
		s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 11})
		if err != nil {
			t.Fatalf("session create: %v", err)
		}
		m, err := refCli.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 11})
		if err != nil {
			t.Fatalf("reference create: %v", err)
		}
		pairs = append(pairs, pair{s, m})
		p := pinnedOn()
		if len(pairs) >= 4 && p[cl.Workers[0].URL()] > 0 && p[cl.Workers[1].URL()] > 0 {
			break
		}
	}
	stepAll := func(round int) {
		t.Helper()
		for i, p := range pairs {
			k := mcKey(i, round)
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
			want, err := p.mirror.Query(context.Background(), k, elsa.Overrides{})
			if err != nil {
				t.Fatalf("query mirror %d round %d: %v", i, round, err)
			}
			for j := range want.Context {
				if got.Context[j] != want.Context[j] {
					t.Fatalf("session %d round %d: context[%d] = %v, want %v (not bit-identical)",
						i, round, j, got.Context[j], want.Context[j])
				}
			}
		}
	}
	stepAll(0)

	victim := cl.Workers[0].URL()
	before := pinnedOn()
	if before[victim] == 0 {
		t.Fatalf("no sessions pinned to %s: %v", victim, before)
	}
	status, err := cl.DrainMember(context.Background(), victim)
	if err != nil {
		t.Fatalf("drain member: %v", err)
	}
	if status.Relocated == 0 {
		t.Fatalf("drain relocated 0 of %d pinned sessions: %+v", before[victim], status)
	}
	if status.PinnedSessions != before[victim] {
		t.Errorf("drain reply pinned = %d, want %d (the count when the drain started)", status.PinnedSessions, before[victim])
	}
	if got := pinnedOn()[victim]; got != 0 {
		t.Fatalf("member still holds %d pinned sessions right after the drain reply", got)
	}
	if n := metricTotal(cl.Frontend.Metrics(), "elsa_serve_sessions_migrated_total"); n == 0 {
		t.Error("migration counter never moved")
	}

	// Every session — relocated ones included — keeps decoding
	// bit-identically.
	stepAll(1)
	stepAll(2)
}

// TestWorkerLossRecoversFromShadow kills a worker mid-decode: the next
// op on each session pinned to it must recover from the frontend's
// shadow mirror — transparently, with the answer bit-identical to an
// undisturbed reference — instead of failing with 503 until the fleet
// heals.
func TestWorkerLossRecoversFromShadow(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ref := servetest.NewWorker(serve.Config{Replicas: 1})
	defer ref.Close()
	refCli := client.New(ref.URL())
	c := client.New(cl.URL())

	type pair struct{ sess, mirror *client.Session }
	var pairs []pair
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
		s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 13})
		if err != nil {
			t.Fatalf("session create: %v", err)
		}
		m, err := refCli.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 13})
		if err != nil {
			t.Fatalf("reference create: %v", err)
		}
		pairs = append(pairs, pair{s, m})
		if len(pairs) >= 4 && pinnedOn()[cl.Workers[0].URL()] > 0 {
			break
		}
	}
	stepAll := func(round int) {
		t.Helper()
		for i, p := range pairs {
			k := mcKey(i, round)
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
			want, err := p.mirror.Query(context.Background(), k, elsa.Overrides{})
			if err != nil {
				t.Fatalf("query mirror %d round %d: %v", i, round, err)
			}
			for j := range want.Context {
				if got.Context[j] != want.Context[j] {
					t.Fatalf("session %d round %d: context[%d] = %v, want %v (not bit-identical)",
						i, round, j, got.Context[j], want.Context[j])
				}
			}
		}
	}
	if pinnedOn()[cl.Workers[0].URL()] == 0 {
		t.Fatalf("no sessions pinned to worker 0 after %d creates", len(pairs))
	}
	stepAll(0)

	// Kill worker 0 mid-decode: connections sever with no response, as
	// from a killed process. Every subsequent op must still succeed — the
	// registry recovers each affected session from its shadow on the op
	// that first observes the loss — and stay bit-identical.
	cl.Workers[0].SetDown(true)
	stepAll(1)
	stepAll(2)
	if n := metricTotal(cl.Frontend.Metrics(), "elsa_serve_sessions_recovered_total"); n == 0 {
		t.Error("recovery counter never moved despite the worker loss")
	}
}

// TestZeroPinnedDrainRepliesImmediately drains a member holding no
// pinned sessions while the member itself is wedged (its /v1/drain
// hangs in 2s of injected latency): the frontend must reply immediately
// anyway, forwarding the drain signal in the background.
func TestZeroPinnedDrainRepliesImmediately(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	victim := cl.Workers[0]
	victim.SetLatency(2 * time.Second)
	start := time.Now()
	status, err := cl.DrainMember(context.Background(), victim.URL())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("drain member: %v", err)
	}
	if status.State != "draining" {
		t.Fatalf("drain reply state = %q, want draining", status.State)
	}
	if status.PinnedSessions != 0 || status.Relocated != 0 {
		t.Fatalf("zero-pinned drain reported pinned=%d relocated=%d", status.PinnedSessions, status.Relocated)
	}
	if elapsed > time.Second {
		t.Fatalf("zero-pinned drain took %v; must not wait on the member", elapsed)
	}
	victim.SetLatency(0)
}
