package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"elsa"
	"elsa/serve/client"
)

// shadowCluster starts one worker behind a listener and a dispatch-only
// frontend pointed at it, so every session the frontend creates is
// pinned to the worker and shadowed locally. It returns the frontend and
// a client for it; cleanup is registered on t.
func shadowCluster(t *testing.T) (*Server, *client.Client) {
	t.Helper()
	worker := New(Config{Replicas: 1})
	wts := httptest.NewServer(worker)
	front := New(Config{
		Replicas:            -1,
		WorkerAddrs:         []string{wts.URL},
		WorkerProbeInterval: 25 * time.Millisecond,
		RequestTimeout:      10 * time.Second,
	})
	fts := httptest.NewServer(front)
	t.Cleanup(func() {
		fts.Close()
		front.Close()
		wts.Close()
		worker.Close()
	})
	return front, client.New(fts.URL)
}

// heldSession looks up id on srv and calls fn with its gate held, so fn
// reads the session's state in order with every op that came before.
func heldSession(t *testing.T, srv *Server, id string, fn func(*session)) {
	t.Helper()
	s, err := srv.sessions.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.release()
	fn(s)
}

// TestShadowCurrentAfterAppend holds the frontend's shadow mirror to
// the worker's length the moment each append returns, with no flush or
// export in between: the accepted rows are replayed before the append
// answers. The appends run on the test's own goroutine, and the shadow
// is read there without the gate, so a replay left to any other
// goroutine would show as a short shadow or, under -race, as a race.
func TestShadowCurrentAfterAppend(t *testing.T) {
	front, c := shadowCluster(t)
	ctx := context.Background()
	var sessions []*session
	for i := 0; i < 3; i++ {
		cs, err := c.NewSession(ctx, client.SessionOptions{HeadDim: testDim, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		s, err := front.sessions.lookup(cs.ID())
		if err != nil {
			t.Fatal(err)
		}
		if s.remote == nil || s.shadow == nil {
			t.Fatalf("session %d: not a shadowed remote session", i)
		}
		sessions = append(sessions, s)
	}
	for round := 0; round < 20; round++ {
		for i, s := range sessions {
			var keys, values [][]float32
			for r := 0; r <= (round+i)%3; r++ {
				keys = append(keys, refusalVec(round+r))
				values = append(values, refusalVec(round+r+1))
			}
			n, err := front.sessions.append(ctx, s.id, keys, values)
			if err != nil {
				t.Fatalf("session %d round %d: %v", i, round, err)
			}
			if s.shadow == nil {
				t.Fatalf("session %d round %d: shadow dropped", i, round)
			}
			if got := s.shadow.Len(); got != n {
				t.Fatalf("session %d round %d: shadow holds %d tokens, worker %d", i, round, got, n)
			}
		}
	}
}

// TestMirrorFailureDropsShadow gives a remote-pinned session a shadow
// built on an engine of another head dimension. The worker accepts the
// next append, the replay fails, and the shadow is dropped rather than
// left divergent: export then answers 409 errNotExportable.
func TestMirrorFailureDropsShadow(t *testing.T) {
	front, c := shadowCluster(t)
	ctx := context.Background()
	s, err := c.NewSession(ctx, client.SessionOptions{HeadDim: testDim, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, refusalVec(0), refusalVec(1)); err != nil {
		t.Fatal(err)
	}
	other, err := elsa.New(elsa.Options{HeadDim: 2 * testDim, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	heldSession(t, front, s.ID(), func(hs *session) {
		if hs.shadow == nil {
			t.Fatal("remote session has no shadow")
		}
		hs.shadow = other.NewStream(0)
	})
	n, err := s.Append(ctx, refusalVec(2), refusalVec(3))
	if err != nil || n != 2 {
		t.Fatalf("append the worker accepts: n=%d err=%v", n, err)
	}
	heldSession(t, front, s.ID(), func(hs *session) {
		if hs.shadow != nil {
			t.Fatal("a failed replay left the shadow in place")
		}
	})
	_, err = s.Export(ctx)
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusConflict || api.Message != errNotExportable.Error() {
		t.Fatalf("export after a dropped shadow: %v, want 409 %q", err, errNotExportable)
	}
}
