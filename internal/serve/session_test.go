package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"elsa"
)

// doJSON sends one JSON request and decodes the reply into out (when
// non-nil and the body is JSON). POST bodies are wrapped in the v1
// envelope — the only format a default (post-sunset) server accepts.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if method == http.MethodPost {
			if raw, err = json.Marshal(Envelope{Op: raw}); err != nil {
				t.Fatal(err)
			}
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v (%s)", method, url, err, raw)
		}
	}
	return resp.StatusCode
}

func genVec(rng *rand.Rand) []float32 {
	v := make([]float32, testDim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return dot / math.Sqrt(na*nb)
}

// TestSessionDecodeMatchesDirectStream is the serving-stack acceptance
// test: an HTTP decode session must produce, token for token, the same
// context vectors as a directly-driven elsa.Stream on the same engine
// configuration, and the approximate decode must stay close to exact
// attention at the calibrated operating point.
func TestSessionDecodeMatchesDirectStream(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created SessionCreateResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		SessionCreateRequest{HeadDim: testDim, Seed: testSeed, P: 1}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	if created.Threshold != nil {
		t.Fatalf("p=1 with an empty registry should defer calibration, got threshold %+v", *created.Threshold)
	}
	base := ts.URL + "/v1/sessions/" + created.ID

	// Reference: the same engine driven directly.
	eng, err := elsa.New(elsa.Options{HeadDim: testDim, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	direct := eng.NewStream(64)

	rng := rand.New(rand.NewSource(41))
	const prefix = 32
	keys := make([][]float32, 0, prefix)
	vals := make([][]float32, 0, prefix)
	for i := 0; i < prefix; i++ {
		k, v := genVec(rng), genVec(rng)
		keys = append(keys, k)
		vals = append(vals, v)
		if err := direct.Append(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Bulk-append half, then single-append the rest, covering both shapes.
	var app SessionAppendResponse
	if code := doJSON(t, client, "POST", base+"/append",
		SessionAppendRequest{Keys: keys[:prefix/2], Values: vals[:prefix/2]}, &app); code != http.StatusOK {
		t.Fatalf("bulk append: status %d", code)
	}
	for i := prefix / 2; i < prefix; i++ {
		if code := doJSON(t, client, "POST", base+"/append",
			SessionAppendRequest{Key: keys[i], Value: vals[i]}, &app); code != http.StatusOK {
			t.Fatalf("append %d: status %d", i, code)
		}
	}
	if app.Len != prefix {
		t.Fatalf("session length %d after appends, want %d", app.Len, prefix)
	}

	// Decode loop: query, compare against the direct stream and exact
	// attention, then append the next token through both paths. Queries
	// point near an existing key so attention is peaked — the concentrated
	// softmax regime the paper's approximation targets (diffuse random
	// queries have no dominant keys for any filter to find).
	const steps = 16
	var thr ThresholdJSON
	sumCos, minCos := 0.0, 1.0
	for step := 0; step < steps; step++ {
		anchor := keys[rng.Intn(len(keys))]
		q := make([]float32, testDim)
		for j := range q {
			q[j] = 2*anchor[j] + 0.3*float32(rng.NormFloat64())
		}
		var got SessionQueryResponse
		if code := doJSON(t, client, "POST", base+"/query", SessionQueryRequest{Q: q}, &got); code != http.StatusOK {
			t.Fatalf("query %d: status %d", step, code)
		}
		if step == 0 {
			thr = got.Threshold
			if thr.P != 1 || thr.Queries == 0 {
				t.Fatalf("first query should have lazily calibrated p=1, got %+v", thr)
			}
			if n := srv.metrics.calibrations.value(); n != 1 {
				t.Fatalf("calibrations = %d after first query, want 1", n)
			}
		} else if got.Threshold != thr {
			t.Fatalf("query %d: threshold drifted from %+v to %+v", step, thr, got.Threshold)
		}
		want, _, err := direct.Query(q, elsa.Threshold{P: thr.P, T: thr.T})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got.Context[j] != want[j] {
				t.Fatalf("step %d: HTTP decode differs from direct stream at dim %d: %g vs %g",
					step, j, got.Context[j], want[j])
			}
		}
		exact, _, err := direct.Query(q, elsa.Exact())
		if err != nil {
			t.Fatal(err)
		}
		c := cosine(got.Context, exact)
		sumCos += c
		if c < minCos {
			minCos = c
		}
		k, v := genVec(rng), genVec(rng)
		if err := direct.Append(k, v); err != nil {
			t.Fatal(err)
		}
		if code := doJSON(t, client, "POST", base+"/append",
			SessionAppendRequest{Key: k, Value: v}, &app); code != http.StatusOK {
			t.Fatalf("decode append %d: status %d", step, code)
		}
	}
	if mean := sumCos / steps; mean < 0.95 || minCos < 0.80 {
		t.Errorf("decode fidelity vs exact attention: mean cosine %.4f (want >= 0.95), min %.4f (want >= 0.80)",
			mean, minCos)
	}

	if code := doJSON(t, client, "DELETE", base, nil, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", code)
	}
	if code := doJSON(t, client, "POST", base+"/query", SessionQueryRequest{Q: genVec(rng)}, nil); code != http.StatusNotFound {
		t.Errorf("query after delete: status %d, want 404", code)
	}
	if n := srv.metrics.sessionEvictions.with("deleted").value(); n != 1 {
		t.Errorf("deleted-session evictions = %d, want 1", n)
	}
}

// TestSessionTTLEviction drives the registry clock forward past the idle
// TTL and checks the session is gone.
func TestSessionTTLEviction(t *testing.T) {
	srv := New(Config{SessionTTL: time.Minute})
	defer srv.Close()
	now := time.Unix(1000, 0)
	srv.sessions.now = func() time.Time { return now }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created SessionCreateResponse
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		SessionCreateRequest{HeadDim: testDim, Seed: testSeed}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	rng := rand.New(rand.NewSource(43))
	base := ts.URL + "/v1/sessions/" + created.ID
	if code := doJSON(t, ts.Client(), "POST", base+"/append",
		SessionAppendRequest{Key: genVec(rng), Value: genVec(rng)}, nil); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}

	now = now.Add(59 * time.Second)
	if code := doJSON(t, ts.Client(), "POST", base+"/append",
		SessionAppendRequest{Key: genVec(rng), Value: genVec(rng)}, nil); code != http.StatusOK {
		t.Fatalf("append within TTL: status %d (touch should refresh)", code)
	}
	now = now.Add(61 * time.Second)
	if code := doJSON(t, ts.Client(), "POST", base+"/query",
		SessionQueryRequest{Q: genVec(rng)}, nil); code != http.StatusNotFound {
		t.Fatalf("query after TTL: status %d, want 404", code)
	}
	if n := srv.metrics.sessionEvictions.with("ttl").value(); n != 1 {
		t.Errorf("ttl evictions = %d, want 1", n)
	}
	if n := srv.sessions.active(); n != 0 {
		t.Errorf("active sessions = %d after TTL eviction, want 0", n)
	}
}

// TestSessionLRUEviction fills the bounded registry and checks the
// least-recently-used session makes room for the new one.
func TestSessionLRUEviction(t *testing.T) {
	srv := New(Config{MaxSessions: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	create := func() string {
		var created SessionCreateResponse
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
			SessionCreateRequest{HeadDim: testDim, Seed: testSeed}, &created); code != http.StatusOK {
			t.Fatalf("create: status %d", code)
		}
		return created.ID
	}
	rng := rand.New(rand.NewSource(47))
	touch := func(id string) int {
		return doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+id+"/append",
			SessionAppendRequest{Key: genVec(rng), Value: genVec(rng)}, nil)
	}

	first, second := create(), create()
	// Touch the first so the second is LRU when the third arrives.
	if code := touch(first); code != http.StatusOK {
		t.Fatalf("touch: status %d", code)
	}
	third := create()
	if code := touch(second); code != http.StatusNotFound {
		t.Errorf("LRU session still alive: status %d, want 404", code)
	}
	for _, id := range []string{first, third} {
		if code := touch(id); code != http.StatusOK {
			t.Errorf("surviving session %s: status %d", id, code)
		}
	}
	if n := srv.metrics.sessionEvictions.with("lru").value(); n != 1 {
		t.Errorf("lru evictions = %d, want 1", n)
	}
	if n := srv.sessions.active(); n != 2 {
		t.Errorf("active sessions = %d, want 2", n)
	}
}

// TestConcurrentSessionAppendQuery hammers one session from many
// goroutines (run under -race via CI): per-session serialization must
// keep every request coherent — no 5xx, and a final length equal to the
// number of successful appends.
func TestConcurrentSessionAppendQuery(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created SessionCreateResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		SessionCreateRequest{HeadDim: testDim, Seed: testSeed, P: 1}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + created.ID
	seedRng := rand.New(rand.NewSource(53))
	if code := doJSON(t, client, "POST", base+"/append",
		SessionAppendRequest{Key: genVec(seedRng), Value: genVec(seedRng)}, nil); code != http.StatusOK {
		t.Fatalf("seed append: status %d", code)
	}

	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				if code := doJSON(t, client, "POST", base+"/append",
					SessionAppendRequest{Key: genVec(rng), Value: genVec(rng)}, nil); code != http.StatusOK {
					errs <- fmt.Errorf("worker %d append %d: status %d", w, i, code)
				}
				var got SessionQueryResponse
				if code := doJSON(t, client, "POST", base+"/query",
					SessionQueryRequest{Q: genVec(rng)}, &got); code != http.StatusOK {
					errs <- fmt.Errorf("worker %d query %d: status %d", w, i, code)
				} else if len(got.Context) != testDim {
					errs <- fmt.Errorf("worker %d query %d: context dim %d", w, i, len(got.Context))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var got SessionQueryResponse
	if code := doJSON(t, client, "POST", base+"/query",
		SessionQueryRequest{Q: genVec(seedRng)}, &got); code != http.StatusOK {
		t.Fatalf("final query: status %d", code)
	}
	if want := 1 + workers*perWorker; got.Len != want {
		t.Errorf("final session length %d, want %d", got.Len, want)
	}
	if n := srv.metrics.calibrations.value(); n != 1 {
		t.Errorf("calibrations = %d under concurrency, want exactly 1", n)
	}
}

// TestSessionValidation covers the client-error surface of the session
// endpoints.
func TestSessionValidation(t *testing.T) {
	srv := New(Config{MaxSessionTokens: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	rng := rand.New(rand.NewSource(59))

	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		SessionCreateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("create without head_dim: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		SessionCreateRequest{HeadDim: testDim, P: -1}, nil); code != http.StatusBadRequest {
		t.Errorf("create with negative p: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/nope/append",
		SessionAppendRequest{Key: genVec(rng), Value: genVec(rng)}, nil); code != http.StatusNotFound {
		t.Errorf("append to unknown session: status %d, want 404", code)
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/nope/query",
		SessionQueryRequest{Q: genVec(rng)}, nil); code != http.StatusNotFound {
		t.Errorf("query unknown session: status %d, want 404", code)
	}
	if code := doJSON(t, client, "DELETE", ts.URL+"/v1/sessions/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown session: status %d, want 404", code)
	}

	var created SessionCreateResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		SessionCreateRequest{HeadDim: testDim, Seed: testSeed}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + created.ID
	if code := doJSON(t, client, "POST", base+"/append",
		SessionAppendRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty append: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", base+"/append", SessionAppendRequest{
		Key: genVec(rng), Value: genVec(rng),
		Keys: [][]float32{genVec(rng)}, Values: [][]float32{genVec(rng)},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("append with both shapes: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", base+"/append", SessionAppendRequest{
		Keys: [][]float32{genVec(rng), genVec(rng)}, Values: [][]float32{genVec(rng)},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("mismatched keys/values: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", base+"/append", SessionAppendRequest{
		Key: genVec(rng)[:3], Value: genVec(rng),
	}, nil); code != http.StatusBadRequest {
		t.Errorf("wrong-width key: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", base+"/query",
		SessionQueryRequest{Q: genVec(rng)}, nil); code != http.StatusBadRequest {
		t.Errorf("query on empty session: status %d, want 400", code)
	}

	// Token budget: 4 allowed, 5th answers 413 and leaves the prefix as-is.
	keys, vals := make([][]float32, 4), make([][]float32, 4)
	for i := range keys {
		keys[i], vals[i] = genVec(rng), genVec(rng)
	}
	var app SessionAppendResponse
	if code := doJSON(t, client, "POST", base+"/append",
		SessionAppendRequest{Keys: keys, Values: vals}, &app); code != http.StatusOK || app.Len != 4 {
		t.Fatalf("append to budget: status %d, len %d", code, app.Len)
	}
	if code := doJSON(t, client, "POST", base+"/append",
		SessionAppendRequest{Key: genVec(rng), Value: genVec(rng)}, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("append past budget: status %d, want 413", code)
	}
}
