// Package servetest provides an in-process fake fleet for exercising the
// cross-host dispatch path: each Worker wraps a real serve.Server behind
// an httptest listener and a programmable fault layer (dead host, drop
// rate, added latency, 5xx bursts, hang-until-cancel), and Cluster wires
// N workers behind a frontend. Tests kill, throttle, and revive workers
// without processes or real sockets, so the whole suite runs under -race.
package servetest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"elsa/internal/serve"
	"elsa/serve/client"
)

// Worker is one fake fleet member: a fully functional serve.Server whose
// HTTP surface can be degraded on demand. The zero fault state serves
// normally. All fault setters are safe for concurrent use with traffic.
type Worker struct {
	srv *serve.Server
	ts  *httptest.Server

	served atomic.Int64 // requests that reached the real server

	mu       sync.Mutex
	down     bool
	dropRate float64
	latency  time.Duration
	errBurst int // answer 500 for this many more requests
	hang     bool
	rng      *rand.Rand

	beater *serve.Heartbeater
}

// NewWorker starts a worker running cfg behind the fault layer.
func NewWorker(cfg serve.Config) *Worker {
	w := &Worker{
		srv: serve.New(cfg),
		rng: rand.New(rand.NewSource(1)),
	}
	w.ts = httptest.NewServer(http.HandlerFunc(w.handle))
	return w
}

// URL returns the worker's base URL, the address a frontend dispatches to.
func (w *Worker) URL() string { return w.ts.URL }

// Server exposes the underlying serve.Server (for its metrics).
func (w *Worker) Server() *serve.Server { return w.srv }

// Served reports how many requests reached the real server (faulted
// requests are not counted).
func (w *Worker) Served() int64 { return w.served.Load() }

// SetDown simulates a dead or revived process: while down, every
// connection is severed without a response, exactly what a frontend sees
// from a crashed host.
func (w *Worker) SetDown(down bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.down = down
}

// SetDropRate severs the given fraction of requests (0 disables),
// simulating a flapping network path.
func (w *Worker) SetDropRate(rate float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dropRate = rate
}

// SetLatency adds fixed delay before each request is served.
func (w *Worker) SetLatency(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.latency = d
}

// InjectErrors makes the next n op requests answer 500 with a JSON error
// body — an application-level burst rather than a transport fault. Health
// probes are unaffected, so the burst deterministically exercises the
// frontend's dispatch-failure handling instead of being consumed by (and
// ejecting the worker through) the probe loop.
func (w *Worker) InjectErrors(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.errBurst = n
}

// SetHang makes requests block until the client gives up (context
// cancellation closes the connection), simulating a wedged process that
// still accepts connections.
func (w *Worker) SetHang(hang bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hang = hang
}

// Join self-registers this worker with the frontend at frontendURL and
// starts heartbeating at interval — the elastic path a real worker takes
// with `elsaserve -join`. The worker advertises its own listener URL.
func (w *Worker) Join(frontendURL string, interval time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.beater != nil {
		return
	}
	w.beater = serve.NewHeartbeater(frontendURL, w.ts.URL, interval, 1, w.srv)
	w.beater.Start()
}

// Leave stops heartbeating (without draining): the frontend's sweep
// expires the member after ~3 missed intervals, as from a crashed host.
func (w *Worker) Leave() {
	w.mu.Lock()
	b := w.beater
	w.beater = nil
	w.mu.Unlock()
	if b != nil {
		b.Stop()
	}
}

// Drain puts the wrapped server into drain mode via its own /v1/drain
// endpoint, the same call a frontend forwards during a member drain.
func (w *Worker) Drain(ctx context.Context) error {
	cli := client.New(w.ts.URL)
	_, err := cli.Drain(ctx)
	return err
}

// Close shuts the listener and drains the wrapped server.
func (w *Worker) Close() {
	w.Leave()
	w.ts.Close()
	w.srv.Close()
}

func (w *Worker) handle(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	down, hang := w.down, w.hang
	latency := w.latency
	dropped := w.dropRate > 0 && w.rng.Float64() < w.dropRate
	burst := w.errBurst > 0 && r.URL.Path != "/v1/healthz"
	if burst {
		w.errBurst--
	}
	w.mu.Unlock()

	switch {
	case down, dropped:
		// Sever the connection with no response: the client's transport
		// surfaces an EOF/reset, as from a killed process.
		panic(http.ErrAbortHandler)
	case hang:
		// Drain the body first: the http server only watches the connection
		// for client disconnects (cancelling r.Context()) once the request
		// body has been consumed, so blocking with an unread POST body would
		// never observe the caller giving up and would wedge Close forever.
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		<-r.Context().Done()
		panic(http.ErrAbortHandler)
	case burst:
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(rw).Encode(map[string]string{"error": "servetest: injected failure"}) //nolint:errcheck
		return
	}
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		}
	}
	w.served.Add(1)
	w.srv.ServeHTTP(rw, r)
}

// Cluster is a frontend dispatching to N fake workers, all in-process.
type Cluster struct {
	Workers  []*Worker
	Frontend *serve.Server

	ts *httptest.Server
}

// NewCluster starts n workers running workerCfg and a frontend running
// front with its WorkerAddrs pointed at them. Set front.Replicas to also
// serve locally; the zero value makes the frontend dispatch-only.
func NewCluster(n int, front, workerCfg serve.Config) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		w := NewWorker(workerCfg)
		c.Workers = append(c.Workers, w)
		front.WorkerAddrs = append(front.WorkerAddrs, w.URL())
	}
	c.Frontend = serve.New(front)
	c.ts = httptest.NewServer(c.Frontend)
	return c
}

// NewDynamicCluster starts a frontend with NO static workers: members
// arrive only by self-registration (AddWorker), the elastic control
// plane under test.
func NewDynamicCluster(front serve.Config) *Cluster {
	c := &Cluster{Frontend: serve.New(front)}
	c.ts = httptest.NewServer(c.Frontend)
	return c
}

// AddWorker starts a new worker running cfg and joins it to the
// frontend with the given heartbeat interval, returning once the
// frontend has activated it (so it owns ring keyspace). The worker is
// appended to c.Workers and torn down by Close.
func (c *Cluster) AddWorker(cfg serve.Config, interval time.Duration, timeout time.Duration) (*Worker, error) {
	w := NewWorker(cfg)
	c.Workers = append(c.Workers, w)
	w.Join(c.URL(), interval)
	if err := c.WaitState(w.URL(), "active", timeout); err != nil {
		return w, err
	}
	return w, nil
}

// DrainMember asks the frontend to drain the member at addr (the
// operator's rolling-upgrade call).
func (c *Cluster) DrainMember(ctx context.Context, addr string) (*client.MemberDrainStatus, error) {
	return client.New(c.URL()).DrainMember(ctx, addr)
}

// WaitState polls the frontend's membership table until the member at
// addr reaches the given state, or fails after timeout.
func (c *Cluster) WaitState(addr, state string, timeout time.Duration) error {
	cli := client.New(c.URL())
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		view, err := cli.Cluster(context.Background())
		if err == nil {
			for _, m := range view.Members {
				if m.Addr == addr {
					last = m.State
					if m.State == state {
						return nil
					}
				}
			}
			if last == "" && state == "gone" {
				// Gone members may be swept out of the table entirely.
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("servetest: member %s never reached state %q (last %q)", addr, state, last)
}

// URL returns the frontend's base URL.
func (c *Cluster) URL() string { return c.ts.URL }

// Close tears the whole cluster down: it stops every worker's
// heartbeats first, so none is sent to a frontend already gone, then
// closes the frontend, then the workers.
func (c *Cluster) Close() {
	for _, w := range c.Workers {
		w.Leave()
	}
	c.ts.Close()
	c.Frontend.Close()
	for _, w := range c.Workers {
		w.Close()
	}
}
