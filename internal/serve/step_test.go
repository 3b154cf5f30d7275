package serve

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elsa"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// TestSessionStepWave exercises POST /v1/sessions/step end to end: a
// wave mixing packed and plain query vectors must return, per entry,
// exactly what the per-query endpoint returns for the same session and
// query, with per-entry failures (unknown IDs, duplicated IDs) isolated
// from the rest of the wave.
func TestSessionStepWave(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := ts.Client()

	const n = 6
	const prefix = 24
	rng := rand.New(rand.NewSource(7))
	ids := make([]string, n)
	queries := make([][]float32, n)
	for i := 0; i < n; i++ {
		req := wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed, P: 1}
		if i%3 == 2 {
			req.P = 0 // exact
		} else {
			tv := 0.25 + 0.1*float64(i)
			req.T = &tv
		}
		var created wire.SessionCreateResponse
		if code := doJSON(t, hc, "POST", ts.URL+"/v1/sessions", req, &created); code != http.StatusOK {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids[i] = created.ID
		keys := make([][]float32, prefix)
		vals := make([][]float32, prefix)
		for j := range keys {
			keys[j], vals[j] = genVec(rng), genVec(rng)
		}
		var app wire.SessionAppendResponse
		if code := doJSON(t, hc, "POST", ts.URL+"/v1/sessions/"+ids[i]+"/append",
			wire.SessionAppendRequest{Keys: keys, Values: vals}, &app); code != http.StatusOK {
			t.Fatalf("append %d: status %d", i, code)
		}
		queries[i] = genVec(rng)
	}

	// Reference: the per-query endpoint, one session at a time.
	want := make([]wire.SessionQueryResponse, n)
	for i := range ids {
		if code := doJSON(t, hc, "POST", ts.URL+"/v1/sessions/"+ids[i]+"/query",
			wire.SessionQueryRequest{Q: queries[i]}, &want[i]); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}

	// The wave: sessions 0..n-1 plus an unknown ID and a duplicate,
	// alternating packed and plain vectors, packed response.
	wave := wire.SessionStepRequest{Packed: true}
	for i := range ids {
		q := wire.SessionStepQuery{ID: ids[i]}
		if i%2 == 0 {
			q.QPacked = client.PackVec(queries[i])
		} else {
			q.Q = queries[i]
		}
		wave.Queries = append(wave.Queries, q)
	}
	wave.Queries = append(wave.Queries,
		wire.SessionStepQuery{ID: "deadbeefdeadbeefdeadbeefdeadbeef", Q: queries[0]},
		wire.SessionStepQuery{ID: ids[0], Q: queries[0]}, // duplicate of entry 0
	)
	// The wave enqueues every entry before it kicks the set, so on an
	// idle server one harvest takes the whole wave as one batch.
	waitFor(t, "every lane to go idle", func() bool {
		srv.disp.mu.Lock()
		defer srv.disp.mu.Unlock()
		return srv.disp.inflight == 0
	})
	var got wire.SessionStepResponse
	if code := doJSON(t, hc, "POST", ts.URL+"/v1/sessions/step", wave, &got); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if len(got.Results) != n+2 {
		t.Fatalf("step returned %d results, want %d", len(got.Results), n+2)
	}
	for i := 0; i < n; i++ {
		r := got.Results[i]
		if r.Error != "" {
			t.Fatalf("entry %d failed: %s", i, r.Error)
		}
		out, err := client.UnpackVec(r.ContextPacked)
		if err != nil {
			t.Fatalf("entry %d packed context: %v", i, err)
		}
		if len(out) != len(want[i].Context) {
			t.Fatalf("entry %d context length %d, want %d", i, len(out), len(want[i].Context))
		}
		for j := range out {
			if out[j] != want[i].Context[j] {
				t.Fatalf("entry %d context[%d] = %g via step, %g via per-query", i, j, out[j], want[i].Context[j])
			}
		}
		if r.Candidates != want[i].Candidates || r.Fallback != want[i].Fallback || r.Len != want[i].Len {
			t.Fatalf("entry %d stats diverge: step %+v, per-query %+v", i, r.SessionQueryResponse, want[i])
		}
		if r.Threshold != want[i].Threshold {
			t.Fatalf("entry %d threshold %+v via step, %+v via per-query", i, r.Threshold, want[i].Threshold)
		}
		if r.BatchSize != n {
			t.Fatalf("entry %d batch size %d, want %d: the wave split across harvests", i, r.BatchSize, n)
		}
	}
	if got.Results[n].Error == "" {
		t.Fatal("unknown session in a wave should fail its own entry")
	}
	if !strings.Contains(got.Results[n+1].Error, "more than once") {
		t.Fatalf("duplicated session should be refused, got error %q", got.Results[n+1].Error)
	}

	// Validation failures reject the whole wave before any decode.
	if code := doJSON(t, hc, "POST", ts.URL+"/v1/sessions/step", wire.SessionStepRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty wave: status %d, want 400", code)
	}
	if code := doJSON(t, hc, "POST", ts.URL+"/v1/sessions/step",
		wire.SessionStepRequest{Queries: []wire.SessionStepQuery{{ID: ids[0], QPacked: "not base64!!"}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad packed vector: status %d, want 400", code)
	}

	// The Go client's Step covers the packed round trip in both
	// directions, threshold overrides included.
	cli := client.New(ts.URL, client.WithHTTPClient(hc))
	cs, err := cli.NewSession(context.Background(), client.SessionOptions{
		Overrides: elsa.Overrides{Thr: &elsa.Threshold{P: 1, T: 0.3}},
		HeadDim:   testDim, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]float32, prefix)
	for j := range keys {
		keys[j] = genVec(rng)
	}
	if _, err := cs.AppendBatch(context.Background(), keys, keys); err != nil {
		t.Fatal(err)
	}
	q := genVec(rng)
	ov := elsa.Threshold{T: 0.9}
	direct, err := cs.Query(context.Background(), q, elsa.Overrides{Thr: &ov})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Step(context.Background(), []client.StepQuery{{Session: cs, Q: q, Thr: &ov}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if len(res[0].Context) != len(direct.Context) {
		t.Fatalf("client step context length %d, want %d", len(res[0].Context), len(direct.Context))
	}
	for j := range direct.Context {
		if res[0].Context[j] != direct.Context[j] {
			t.Fatalf("client step context[%d] = %g, per-query %g", j, res[0].Context[j], direct.Context[j])
		}
	}
	if res[0].Threshold != direct.Threshold {
		t.Fatalf("client step threshold %+v, per-query %+v", res[0].Threshold, direct.Threshold)
	}
}
