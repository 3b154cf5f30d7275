package serve_test

// Fault-injection suite for cross-host sharding: a servetest cluster of
// fake workers behind a real frontend, with workers killed, flapped,
// wedged, and error-injected mid-load. Lives in an external test package
// because servetest imports serve.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

const (
	rtDim  = 16
	rtSeed = 11
)

// fastCluster returns configs tuned for tests: fast probes so
// ejection/re-admission happens within a test's patience.
func fastCluster() (front, worker serve.Config) {
	front = serve.Config{
		WorkerProbeInterval: 25 * time.Millisecond,
		RequestTimeout:      10 * time.Second,
	}
	worker = serve.Config{Replicas: 1}
	return front, worker
}

// rtOps builds a deterministic workload of attention ops.
func rtOps(n int) [][3][][]float32 {
	rng := rand.New(rand.NewSource(rtSeed))
	ops := make([][3][][]float32, n)
	for i := range ops {
		gen := func(rows int) [][]float32 {
			m := make([][]float32, rows)
			for r := range m {
				m[r] = make([]float32, rtDim)
				for c := range m[r] {
					m[r][c] = float32(rng.NormFloat64())
				}
			}
			return m
		}
		keys := 4 + rng.Intn(12)
		ops[i] = [3][][]float32{gen(2), gen(keys), nil}
		ops[i][2] = make([][]float32, keys)
		for r := range ops[i][2] {
			ops[i][2][r] = make([]float32, rtDim)
			for c := range ops[i][2][r] {
				ops[i][2][r][c] = float32(rng.NormFloat64())
			}
		}
	}
	return ops
}

// singleHostResults runs ops sequentially against a standalone server —
// the bit-exact reference every cluster topology must match.
func singleHostResults(t *testing.T, ops [][3][][]float32) []*client.Result {
	t.Helper()
	ref := servetest.NewWorker(serve.Config{Replicas: 1})
	defer ref.Close()
	c := client.New(ref.URL())
	out := make([]*client.Result, len(ops))
	for i, op := range ops {
		res, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim})
		if err != nil {
			t.Fatalf("reference op %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

func sameContext(a, b *client.Result) bool {
	if len(a.Context) != len(b.Context) {
		return false
	}
	for i := range a.Context {
		if len(a.Context[i]) != len(b.Context[i]) {
			return false
		}
		for j := range a.Context[i] {
			if a.Context[i][j] != b.Context[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRemoteClusterBitIdenticalToSingleHost routes a concurrent workload
// through a dispatch-only frontend over two workers and requires every
// result to match the single-host reference bit for bit.
func TestRemoteClusterBitIdenticalToSingleHost(t *testing.T) {
	ops := rtOps(40)
	want := singleHostResults(t, ops)

	front, workerCfg := fastCluster()
	cl := servetest.NewCluster(2, front, workerCfg)
	defer cl.Close()

	c := client.New(cl.URL())
	var wg sync.WaitGroup
	errs := make([]error, len(ops))
	got := make([]*client.Result, len(ops))
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Attend(context.Background(), ops[i][0], ops[i][1], ops[i][2],
				client.AttendOptions{HeadDim: rtDim})
		}(i)
	}
	wg.Wait()
	for i := range ops {
		if errs[i] != nil {
			t.Fatalf("op %d: %v", i, errs[i])
		}
		if !sameContext(got[i], want[i]) {
			t.Fatalf("op %d: cluster result differs from single-host", i)
		}
	}
	for i, w := range cl.Workers {
		if w.Served() == 0 {
			t.Errorf("worker %d served no requests; load did not spread", i)
		}
	}
}

// TestWorkerDeathMidLoadReroutes kills one of two workers in the middle
// of a concurrent run: every op must still succeed — rerouted ops
// re-execute on the survivor — with results bit-identical to single-host,
// and the dead worker must be ejected.
func TestWorkerDeathMidLoadReroutes(t *testing.T) {
	ops := rtOps(60)
	want := singleHostResults(t, ops)

	front, workerCfg := fastCluster()
	cl := servetest.NewCluster(2, front, workerCfg)
	defer cl.Close()

	c := client.New(cl.URL())
	var wg sync.WaitGroup
	errs := make([]error, len(ops))
	got := make([]*client.Result, len(ops))
	var once sync.Once
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == len(ops)/2 {
				// Kill worker 0 mid-load, from inside the traffic.
				once.Do(func() { cl.Workers[0].SetDown(true) })
			}
			got[i], errs[i] = c.Attend(context.Background(), ops[i][0], ops[i][1], ops[i][2],
				client.AttendOptions{HeadDim: rtDim})
		}(i)
	}
	wg.Wait()
	for i := range ops {
		if errs[i] != nil {
			t.Fatalf("op %d failed despite a live worker: %v", i, errs[i])
		}
		if !sameContext(got[i], want[i]) {
			t.Fatalf("op %d: result after reroute differs from single-host", i)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if metricTotal(cl.Frontend.Metrics(), "elsa_serve_worker_ejections_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead worker never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAllWorkersDown503RetryAfter downs the whole fleet: requests must
// answer 503 with a Retry-After header promptly, never hang.
func TestAllWorkersDown503RetryAfter(t *testing.T) {
	front, workerCfg := fastCluster()
	cl := servetest.NewCluster(2, front, workerCfg)
	defer cl.Close()
	for _, w := range cl.Workers {
		w.SetDown(true)
	}

	ops := rtOps(1)
	c := client.New(cl.URL())
	start := time.Now()
	_, err := c.Attend(context.Background(), ops[0][0], ops[0][1], ops[0][2],
		client.AttendOptions{HeadDim: rtDim})
	elapsed := time.Since(start)
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %v", err)
	}
	if api.RetryAfter <= 0 {
		t.Error("503 carried no Retry-After")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("fleet-down request took %v; must fail fast, not hang", elapsed)
	}

	// Once the probes eject everyone the frontend sheds at admission, and
	// healthz reports the outage.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err == nil && h.HealthyWorkers == 0 {
			if h.Role != "frontend" || h.Workers != 2 {
				t.Fatalf("healthz = %+v, want frontend with 2 workers", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported zero healthy workers")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlappingWorkerEjectionAndReadmission downs a worker until it is
// ejected, then revives it and requires the probe loop to re-admit it —
// with both transitions visible in the counters and in traffic.
func TestFlappingWorkerEjectionAndReadmission(t *testing.T) {
	front, workerCfg := fastCluster()
	cl := servetest.NewCluster(2, front, workerCfg)
	defer cl.Close()

	flaky := cl.Workers[0]
	flaky.SetDown(true)
	m := cl.Frontend.Metrics()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("ejection", func() bool { return metricTotal(m, "elsa_serve_worker_ejections_total") >= 1 })
	flaky.SetDown(false)
	waitFor("re-admission", func() bool { return metricTotal(m, "elsa_serve_worker_readmissions_total") >= 1 })

	// A re-admitted worker takes traffic again.
	served := flaky.Served()
	c := client.New(cl.URL())
	ops := rtOps(20)
	deadline := time.Now().Add(5 * time.Second)
	for flaky.Served() == served {
		if time.Now().After(deadline) {
			t.Fatal("re-admitted worker got no traffic")
		}
		for _, op := range ops {
			if _, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// metricTotal sums every sample of one int-valued family — all label
// values of a labelled family — in m's /v1/metrics exposition.
func metricTotal(m *serve.Metrics, family string) int64 {
	var sb strings.Builder
	m.WriteTo(&sb) //nolint:errcheck // a strings.Builder never fails
	var total int64
	for _, line := range strings.Split(sb.String(), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok || (key != family && !strings.HasPrefix(key, family+"{")) {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		total += n
	}
	return total
}

// Test5xxBurstRerouted injects application-level 500s on one worker: the
// affected ops must reroute (counter moves) and still succeed.
func Test5xxBurstRerouted(t *testing.T) {
	front, workerCfg := fastCluster()
	cl := servetest.NewCluster(2, front, workerCfg)
	defer cl.Close()
	cl.Workers[0].InjectErrors(5)

	c := client.New(cl.URL())
	ops := rtOps(30)
	for i, op := range ops {
		if _, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if metricTotal(cl.Frontend.Metrics(), "elsa_serve_reroutes_total") == 0 {
		t.Error("5xx burst triggered no reroutes")
	}
}

// TestSessionPinnedToWorker503OnLoss creates a decode session on a
// single-worker cluster, kills the worker, and requires queries to answer
// 503 with Retry-After — session state cannot reroute.
func TestSessionPinnedToWorker503OnLoss(t *testing.T) {
	front, workerCfg := fastCluster()
	cl := servetest.NewCluster(1, front, workerCfg)
	defer cl.Close()

	c := client.New(cl.URL())
	s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim})
	if err != nil {
		t.Fatal(err)
	}
	key := make([]float32, rtDim)
	key[0] = 1
	if _, err := s.Append(context.Background(), key, key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), key, elsa.Overrides{}); err != nil {
		t.Fatalf("query before loss: %v", err)
	}

	cl.Workers[0].SetDown(true)
	_, err = s.Query(context.Background(), key, elsa.Overrides{})
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("query after worker loss: want 503, got %v", err)
	}
	if api.RetryAfter <= 0 {
		t.Error("worker-loss 503 carried no Retry-After")
	}
}

// TestHangWorkerTimesOut wedges the only worker (accepts connections,
// never answers): the frontend's request timeout must bound the call.
func TestHangWorkerTimesOut(t *testing.T) {
	front, workerCfg := fastCluster()
	front.RequestTimeout = 300 * time.Millisecond
	cl := servetest.NewCluster(1, front, workerCfg)
	defer cl.Close()
	cl.Workers[0].SetHang(true)

	ops := rtOps(1)
	c := client.New(cl.URL())
	start := time.Now()
	_, err := c.Attend(context.Background(), ops[0][0], ops[0][1], ops[0][2],
		client.AttendOptions{HeadDim: rtDim})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("attend against a wedged worker succeeded")
	}
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("wedged-worker request took %v; the timeout did not bound it", elapsed)
	}
}

// TestFrontendMixesLocalAndRemote runs a frontend with one local replica
// plus one worker: both lanes serve, results still match single-host.
func TestFrontendMixesLocalAndRemote(t *testing.T) {
	ops := rtOps(30)
	want := singleHostResults(t, ops)

	front, workerCfg := fastCluster()
	front.Replicas = 1
	cl := servetest.NewCluster(1, front, workerCfg)
	defer cl.Close()

	c := client.New(cl.URL())
	for i, op := range ops {
		got, err := c.Attend(context.Background(), op[0], op[1], op[2], client.AttendOptions{HeadDim: rtDim})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !sameContext(got, want[i]) {
			t.Fatalf("op %d: mixed-lane result differs from single-host", i)
		}
	}
	if cl.Workers[0].Served() == 0 {
		t.Error("remote lane never served with a local replica present")
	}
	if rem := metricTotal(cl.Frontend.Metrics(), "elsa_serve_remote_ops_total"); rem == 0 {
		t.Error("remote-op counter never moved")
	}
}
