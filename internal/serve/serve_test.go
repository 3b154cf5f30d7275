package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/wire"
)

const (
	testDim  = 16
	testSeed = 7
)

// genOp builds one small deterministic attention op.
func genOp(rng *rand.Rand, nq, nk int) (q, k, v [][]float32) {
	mk := func(rows int) [][]float32 {
		m := make([][]float32, rows)
		for i := range m {
			m[i] = make([]float32, testDim)
			for j := range m[i] {
				m[i][j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
	return mk(nq), mk(nk), mk(nk)
}

func postAttend(t *testing.T, client *http.Client, url string, req wire.AttendRequest) (*http.Response, []byte) {
	t.Helper()
	op, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.Envelope[json.RawMessage]{Op: op})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/attend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestLoadGeneratorBatchingAndCorrectness drives hundreds of concurrent
// requests through the HTTP stack and checks (a) the scheduler actually
// coalesced them (mean dispatched batch size > 1) and (b) every response
// is byte-identical to an unbatched Engine.Attend on the same inputs.
// Every lane is held busy until the storm has queued, so the lanes must
// harvest it in full batches.
func TestLoadGeneratorBatchingAndCorrectness(t *testing.T) {
	srv := New(Config{
		MaxBatch: 64,
		MaxQueue: 2048,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A handful of distinct payloads reused across the request storm, with
	// reference outputs from a directly-constructed engine.
	rng := rand.New(rand.NewSource(testSeed))
	eng, err := elsa.New(elsa.Options{HeadDim: testDim, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 8
	type payload struct {
		req  wire.AttendRequest
		want *elsa.Output
	}
	payloads := make([]payload, distinct)
	for i := range payloads {
		q, k, v := genOp(rng, 6, 12)
		want, err := eng.Attend(q, k, v, elsa.Exact())
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = payload{
			req:  wire.AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed},
			want: want,
		}
	}

	set, err := srv.pool.get(attendEngineOptions(&payloads[0].req))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(srv.disp, set)
	defer openAll(gates)
	occupy(t, srv.disp, set, gates)

	const requests = 300
	client := ts.Client()
	client.Timeout = 2 * time.Minute
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	batchSizes := make([]int, requests)
	var start sync.WaitGroup
	start.Add(1)
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			start.Wait()
			p := payloads[r%distinct]
			resp, raw := postAttend(t, client, ts.URL, p.req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", r, resp.StatusCode, raw)
				return
			}
			var got wire.AttendResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				errs <- fmt.Errorf("request %d: %v", r, err)
				return
			}
			batchSizes[r] = got.BatchSize
			if got.CandidateFraction != p.want.CandidateFraction ||
				got.FallbackQueries != p.want.FallbackQueries {
				errs <- fmt.Errorf("request %d: stats differ from unbatched Attend", r)
				return
			}
			if len(got.Context) != len(p.want.Context) {
				errs <- fmt.Errorf("request %d: %d rows, want %d", r, len(got.Context), len(p.want.Context))
				return
			}
			for i := range got.Context {
				for j := range got.Context[i] {
					if got.Context[i][j] != p.want.Context[i][j] {
						errs <- fmt.Errorf("request %d: output differs at %d,%d", r, i, j)
						return
					}
				}
			}
		}(r)
	}
	start.Done() // release the storm at once so requests overlap
	waitQueued(t, srv.disp, requests)
	openAll(gates)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var sum int
	for _, b := range batchSizes {
		if b < 1 {
			t.Fatalf("response carried batch size %d", b)
		}
		sum += b
	}
	meanSeen := float64(sum) / requests
	if meanSeen <= 1 {
		t.Errorf("mean per-request batch size %.2f, want > 1 (no batching happened)", meanSeen)
	}
	if len(batchSizes) > 0 && slices.Max(batchSizes) != 64 {
		t.Errorf("largest batch %d, want a full MaxBatch of 64 from the queued storm", slices.Max(batchSizes))
	}
	if mean := srv.Metrics().MeanBatchSize(); mean <= 1 {
		t.Errorf("mean dispatched batch size %.2f, want > 1", mean)
	}
	// One engine config → one pooled engine, despite 300 requests.
	if n := srv.pool.size(); n != 1 {
		t.Errorf("engine pool holds %d engines, want 1", n)
	}
}

// TestCalibratedThresholdIsSharedAndEchoed checks p > 0 requests calibrate
// once per (engine, p), share the cached threshold, and echo it.
func TestCalibratedThresholdIsSharedAndEchoed(t *testing.T) {
	srv := New(Config{MaxQueue: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(9))
	q, k, v := genOp(rng, 4, 32)
	req := wire.AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed, P: 1}

	var thresholds []elsa.Threshold
	for i := 0; i < 3; i++ {
		resp, raw := postAttend(t, ts.Client(), ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var got wire.AttendResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		thresholds = append(thresholds, got.Threshold)
	}
	for i, thr := range thresholds {
		if thr.P != 1 || thr.Queries == 0 {
			t.Errorf("response %d: threshold %+v not calibrated for p=1", i, thr)
		}
		if thr != thresholds[0] {
			t.Errorf("response %d: threshold %+v differs from first %+v (cache miss)", i, thr, thresholds[0])
		}
	}

	// An explicit t skips calibration and is echoed verbatim.
	tv := 0.25
	req.T = &tv
	resp, raw := postAttend(t, ts.Client(), ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit threshold: status %d: %s", resp.StatusCode, raw)
	}
	var got wire.AttendResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Threshold.T != tv {
		t.Errorf("explicit threshold echoed as %g, want %g", got.Threshold.T, tv)
	}
}

func TestBadRequestsAreRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(11))
	q, k, v := genOp(rng, 2, 4)
	cases := []struct {
		name string
		req  wire.AttendRequest
	}{
		{"empty q", wire.AttendRequest{K: k, V: v}},
		{"ragged k", wire.AttendRequest{Q: q, K: [][]float32{k[0], k[1][:3]}, V: v[:2]}},
		{"kv mismatch", wire.AttendRequest{Q: q, K: k, V: v[:2]}},
		{"negative p", wire.AttendRequest{Q: q, K: k, V: v, P: -1}},
		{"bad head dim", wire.AttendRequest{Q: q, K: k, V: v, HeadDim: -3}},
	}
	for _, tc := range cases {
		resp, raw := postAttend(t, ts.Client(), ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, raw)
		}
	}

	// Non-JSON body.
	resp, err := ts.Client().Post(ts.URL+"/v1/attend", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = ts.Client().Get(ts.URL + "/v1/attend")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/attend: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Serve one real request so counters are non-zero.
	rng := rand.New(rand.NewSource(13))
	q, k, v := genOp(rng, 2, 4)
	resp, raw := postAttend(t, ts.Client(), ts.URL, wire.AttendRequest{Q: q, K: k, V: v})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attend: status %d: %s", resp.StatusCode, raw)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health wire.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Engines != 1 {
		t.Errorf("healthz: status %d, body %+v", resp.StatusCode, health)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`elsa_serve_requests_total{code="200"} 1`,
		"elsa_serve_batches_total 1",
		"elsa_serve_batch_size_count 1",
		"elsa_serve_request_seconds_count 1",
		"elsa_serve_candidate_fraction_count 1",
		"elsa_serve_engines 1",
		"elsa_serve_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestRequestTimeoutAnswers504 holds the only lane busy, so a request
// waits in queue past its deadline.
func TestRequestTimeoutAnswers504(t *testing.T) {
	srv := New(Config{
		RequestTimeout: 10 * time.Millisecond,
		Replicas:       1,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(17))
	q, k, v := genOp(rng, 2, 4)
	req := wire.AttendRequest{Q: q, K: k, V: v}
	set, err := srv.pool.get(attendEngineOptions(&req))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(srv.disp, set)
	defer openAll(gates)
	occupy(t, srv.disp, set, gates)

	resp, raw := postAttend(t, ts.Client(), ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
}

// TestBackpressure429 fills the bounded queue behind held lanes and
// checks the overflow request is shed, while the queued requests still
// succeed once the lanes free.
func TestBackpressure429(t *testing.T) {
	srv := New(Config{
		MaxBatch: 64,
		MaxQueue: 2,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(19))
	q, k, v := genOp(rng, 2, 4)
	req := wire.AttendRequest{Q: q, K: k, V: v}
	set, err := srv.pool.get(attendEngineOptions(&req))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(srv.disp, set)
	defer openAll(gates)
	occupy(t, srv.disp, set, gates)

	// Two requests occupy the queue while every lane is held.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postAttend(t, ts.Client(), ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("queued request: status %d (%s)", resp.StatusCode, raw)
			}
		}()
	}
	waitQueued(t, srv.disp, 2)
	resp, raw := postAttend(t, ts.Client(), ts.URL, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", resp.StatusCode, raw)
	}
	openAll(gates)
	wg.Wait()
}

// TestGracefulCloseDrainsPending verifies Close waits for ops queued
// behind busy lanes, which leave as one batch once a lane frees and all
// succeed, while new requests are refused with 503.
func TestGracefulCloseDrainsPending(t *testing.T) {
	srv := New(Config{
		MaxBatch: 64,
		MaxQueue: 64,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(23))
	q, k, v := genOp(rng, 2, 4)
	req := wire.AttendRequest{Q: q, K: k, V: v}
	set, err := srv.pool.get(attendEngineOptions(&req))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(srv.disp, set)
	defer openAll(gates)
	blockers := occupy(t, srv.disp, set, gates)

	const pending = 5
	var wg sync.WaitGroup
	codes := make([]int, pending)
	sizes := make([]int, pending)
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postAttend(t, ts.Client(), ts.URL, req)
			codes[i] = resp.StatusCode
			var got wire.AttendResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Error(err)
				}
				sizes[i] = got.BatchSize
			}
		}(i)
	}
	waitQueued(t, srv.disp, pending)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	waitFor(t, "Close to stop admission", func() bool {
		srv.disp.mu.Lock()
		defer srv.disp.mu.Unlock()
		return srv.disp.closed
	})
	resp, raw := postAttend(t, ts.Client(), ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during close: status %d (%s), want 503", resp.StatusCode, raw)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted ops were still queued")
	case <-time.After(20 * time.Millisecond):
	}

	openAll(gates) // the first lane to free harvests all five at once
	<-closed
	wg.Wait()
	for range gates {
		if err := <-blockers; err != nil {
			t.Errorf("blocker: %v", err)
		}
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("drained request %d: status %d, want 200", i, code)
		}
		if sizes[i] != pending {
			t.Errorf("drained request %d: batch size %d, want %d", i, sizes[i], pending)
		}
	}

	resp, raw = postAttend(t, ts.Client(), ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close request: status %d (%s), want 503", resp.StatusCode, raw)
	}
}
