package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"elsa/internal/serve"
)

// defaultServeConfig is the Config cmd/elsaserve builds when run without
// flags: its flag defaults, with the unset fields left for serve.New to
// default.
func defaultServeConfig() serve.Config {
	return serve.Config{
		BatchWindow:         2 * time.Millisecond,
		MaxBatch:            64,
		MaxQueue:            256,
		RequestTimeout:      30 * time.Second,
		MaxEngines:          8,
		MaxSessions:         1024,
		SessionTTL:          15 * time.Minute,
		MaxSessionTokens:    65536,
		MaxThresholdFiles:   512,
		ClassWeights:        [serve.NumClasses]int{16, 4, 1},
		WorkerProbeInterval: 5 * time.Second,
		WorkerInFlight:      32,
		WorkerFailLimit:     3,
		DispatchRetries:     2,
		DrainTimeout:        time.Minute,
	}
}

const reqHeader = "X-Bench-Req"

// serveChild runs the server side of the HTTP workloads: serve.New behind
// a listener on a free loopback port, announced on stdout as
// "listening ADDR". With -trace it can record one span per request around
// the server's ServeHTTP, while POST /bench/trace/on is in effect, and
// hands them out on GET /bench/spans. GET /bench/cpu gives its CPU time
// so far in nanoseconds, at getrusage's resolution. It exits
// on SIGTERM/SIGINT or when its stdin closes (the parent went away).
func serveChild(args []string) int {
	fs := flag.NewFlagSet("serve-child", flag.ContinueOnError)
	trace := fs.Bool("trace", false, "record a span per request")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	srv := serve.New(defaultServeConfig())
	var rec *Recorder
	if *trace {
		rec = newRecorder()
		rec.on.Store(false)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /bench/trace/{state}", func(w http.ResponseWriter, r *http.Request) {
		if rec != nil {
			rec.on.Store(r.PathValue("state") == "on")
		}
	})
	mux.HandleFunc("GET /bench/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rec.Spans()) //nolint:errcheck // the parent sees a short body
	})
	mux.HandleFunc("GET /bench/cpu", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "%d\n", selfCPU().Nanoseconds())
	})
	mux.Handle("/", spanHandler(rec, srv))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsaperf serve-child:", err)
		return 1
	}
	fmt.Printf("listening %s\n", ln.Addr())
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	orphaned := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // EOF or error both mean the parent is gone
		close(orphaned)
	}()
	code := 0
	select {
	case <-stop:
	case <-orphaned:
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "elsaperf serve-child:", err)
		code = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx) //nolint:errcheck // exiting either way
	srv.Close()
	return code
}

// spanHandler wraps h with one span per request, named after the
// endpoint and keyed by the request id the benchmark client sent. A nil
// recorder returns h itself, so untraced runs serve through the same
// process layout with nothing added.
func spanHandler(rec *Recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		id := rec.Begin(endpointName(r), -1, req)
		h.ServeHTTP(w, r)
		rec.End(id)
	})
}

// endpointName maps a request onto the handler span names the report uses.
func endpointName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/attend":
		return "serve.attend"
	case p == "/v1/sessions/step":
		return "serve.step"
	case p == "/v1/sessions" && r.Method == http.MethodPost:
		return "serve.create"
	case strings.HasSuffix(p, "/append"):
		return "serve.append"
	case r.Method == http.MethodDelete:
		return "serve.delete"
	}
	return "serve.other"
}

// child is a running server child process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
	pid   int
	exit  chan error
	once  sync.Once
}

// spawnServer starts the server child and waits until it answers
// /v1/healthz.
func spawnServer(trace bool, hc *http.Client) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve-child", "-trace="+strconv.FormatBool(trace))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, pid: cmd.Process.Pid, exit: make(chan error, 1)}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, stdout) //nolint:errcheck // drain until the child exits
		c.exit <- cmd.Wait()
	}()
	select {
	case line, ok := <-lines:
		addr, found := strings.CutPrefix(line, "listening ")
		if !ok || !found {
			c.stop()
			return nil, fmt.Errorf("server child did not announce its address (got %q)", line)
		}
		c.base = "http://" + addr
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, errors.New("server child did not start within 30s")
	}
	if err := waitHealthy(hc, c.base); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := hc.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the child and waits for it to exit. It is idempotent.
func (c *child) stop() {
	c.once.Do(func() {
		c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already be gone
		select {
		case <-c.exit:
		case <-time.After(10 * time.Second):
			c.cmd.Process.Kill() //nolint:errcheck // last resort
			<-c.exit
		}
		c.stdin.Close()
	})
}

// metrics fetches and parses the child's /v1/metrics.
func (c *child) metrics(hc *http.Client) (promSamples, error) {
	resp, err := hc.Get(c.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body)), nil
}

// cpu returns the child's user+system CPU time since it started.
func (c *child) cpu(hc *http.Client) (time.Duration, error) {
	resp, err := hc.Get(c.base + "/bench/cpu")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(body)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/bench/cpu: %w", err)
	}
	return time.Duration(ns), nil
}

// setTrace turns the child's span recording on or off.
func (c *child) setTrace(hc *http.Client, on bool) error {
	state := "off"
	if on {
		state = "on"
	}
	resp, err := hc.Post(c.base+"/bench/trace/"+state, "text/plain", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// spans fetches the child's recorded handler spans.
func (c *child) spans(hc *http.Client) ([]Span, error) {
	resp, err := hc.Get(c.base + "/bench/spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []Span
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding server spans: %w", err)
	}
	return out, nil
}

type reqKey struct{}

// withReq tags ctx with a request id the transport forwards to the server.
func withReq(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

// countingTransport forwards the request id header and counts request
// body bytes and requests. It is the only HTTP stack the benchmark's
// client uses: at most GOMAXPROCS connections to the server.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
	reqs  atomic.Int64
}

func newHTTPClient() (*http.Client, *countingTransport) {
	n := runtime.GOMAXPROCS(0)
	ct := &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
	return &http.Client{Transport: ct}, ct
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	t.reqs.Add(1)
	return t.base.RoundTrip(r)
}
