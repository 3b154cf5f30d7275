package client_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/serve/client"
)

// TestAttendRoundTrip drives the real serving stack through the client
// and checks the result matches a direct engine call.
func TestAttendRoundTrip(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const dim = 16
	q := [][]float32{make([]float32, dim)}
	k := [][]float32{make([]float32, dim), make([]float32, dim)}
	v := [][]float32{make([]float32, dim), make([]float32, dim)}
	q[0][0], k[0][0], k[1][1] = 1, 1, 1
	v[0][0], v[1][1] = 2, 3

	eng, err := elsa.New(elsa.Options{HeadDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Attend(q, k, v, elsa.Exact())
	if err != nil {
		t.Fatal(err)
	}

	c := client.New(ts.URL, client.WithClientID("roundtrip"))
	got, err := c.Attend(context.Background(), q, k, v, client.AttendOptions{HeadDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Context {
		for j := range want.Context[i] {
			if got.Context[i][j] != want.Context[i][j] {
				t.Fatalf("context[%d][%d] = %g, want %g", i, j, got.Context[i][j], want.Context[i][j])
			}
		}
	}
	if got.BatchSize < 1 {
		t.Errorf("batch size %d, want >= 1", got.BatchSize)
	}
}

// TestSessionLifecycle exercises the session handle end to end.
func TestSessionLifecycle(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const dim = 16
	c := client.New(ts.URL, client.WithClientID("sess"))
	s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	if s.Threshold == nil || s.Threshold.T != elsa.Exact().T {
		t.Errorf("p=0 session should resolve the exact threshold at create, got %+v", s.Threshold)
	}
	key := make([]float32, dim)
	key[0] = 1
	if n, err := s.Append(context.Background(), key, key); err != nil || n != 1 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	res, err := s.Query(context.Background(), key, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len != 1 || len(res.Context) != dim {
		t.Fatalf("query: len=%d context=%d", res.Len, len(res.Context))
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), key, elsa.Overrides{}); err == nil {
		t.Fatal("query after close should fail")
	}
}

// TestRetriesHonorRetryAfter verifies the retry loop obeys the server's
// backoff hint and that the envelope carries identity, priority, and the
// context deadline.
func TestRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var sawEnvelope atomic.Bool
	var firstArrival, secondArrival time.Time
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var env struct {
			ClientID   string          `json:"client_id"`
			Priority   string          `json:"priority"`
			DeadlineMS int64           `json:"deadline_ms"`
			Op         json.RawMessage `json:"op"`
		}
		if err := json.NewDecoder(r.Body).Decode(&env); err == nil &&
			env.ClientID == "retrier" && env.Priority == "background" &&
			env.DeadlineMS > 0 && env.Op != nil {
			sawEnvelope.Store(true)
		}
		switch calls.Add(1) {
		case 1:
			firstArrival = time.Now()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "throttled"}) //nolint:errcheck
		default:
			secondArrival = time.Now()
			json.NewEncoder(w).Encode(map[string]any{"context": [][]float32{{1}}}) //nolint:errcheck
		}
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL, client.WithClientID("retrier"), client.WithPriority("background"), client.WithRetries(2))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q := [][]float32{{1}}
	if _, err := c.Attend(ctx, q, q, q, client.AttendOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one throttled, one retried)", got)
	}
	if !sawEnvelope.Load() {
		t.Error("request envelope missing client_id/priority/deadline_ms/op")
	}
	if gap := secondArrival.Sub(firstArrival); gap < time.Second {
		t.Errorf("retry arrived %v after the 429; must honour Retry-After: 1", gap)
	}
}

// TestNoRetryWithoutOptIn verifies a throttled request surfaces the
// client.APIError (with its RetryAfter hint) when retries are off.
func TestNoRetryWithoutOptIn(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "throttled"}) //nolint:errcheck
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	q := [][]float32{{1}}
	_, err := client.New(ts.URL).Attend(context.Background(), q, q, q, client.AttendOptions{})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError, got %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter != 7*time.Second {
		t.Errorf("client.APIError = %+v, want status 429 with 7s Retry-After", apiErr)
	}
}

// TestClusterRejectsPreSchemaServers pins that a GET /v1/cluster reply
// without schema_version >= 1 (the pre-v1 shape: top-level members and
// per-class fields, no signals or targets blocks) is an error rather than
// an empty member list.
func TestClusterRejectsPreSchemaServers(t *testing.T) {
	for _, body := range []string{
		`{"version": 4, "members": [{"addr": "http://w1", "state": "active", "pinned_sessions": 3}],
		  "queue_depth_by_class": {"interactive": 5}, "sheds_by_class": {"interactive": 7}}`,
		`{"schema_version": 0, "version": 4, "targets": [{"addr": "http://w1", "state": "active"}]}`,
	} {
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(body))
		}))
		info, err := client.New(old.URL).Cluster(context.Background())
		old.Close()
		if err == nil || !strings.Contains(err.Error(), "schema_version") {
			t.Errorf("pre-schema reply %s: got %+v, err %v; want a schema_version error", body, info, err)
		}
	}
}

// TestClusterTypedViewFromV1Server pins the v1 path end to end against a
// real frontend: schema_version 1, signals block present, targets
// decoded into Members.
func TestClusterTypedViewFromV1Server(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, err := client.New(ts.URL).Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.SchemaVersion != 1 {
		t.Fatalf("schema version %d, want 1", info.SchemaVersion)
	}
	if info.Signals.QueueDepthByClass == nil || info.Signals.ShedRateByClass == nil {
		t.Fatalf("v1 signals block incomplete: %+v", info.Signals)
	}

	// The wire reply carries the v1 blocks and nothing else.
	resp, err := ts.Client().Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var top map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema_version", "version", "signals", "targets"} {
		if _, ok := top[k]; !ok {
			t.Errorf("GET /v1/cluster lacks %q", k)
		}
		delete(top, k)
	}
	if len(top) != 0 {
		t.Errorf("GET /v1/cluster carries fields beyond the v1 schema: %v", top)
	}
}
