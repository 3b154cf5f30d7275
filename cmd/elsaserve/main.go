// Command elsaserve runs the ELSA attention service: a long-running HTTP
// server that coalesces concurrent attention requests into micro-batches
// and routes them across dispatch lanes (the software analogue of the
// accelerator's batch-level parallelism across replicated modules,
// §IV-D), hosts autoregressive decode sessions over incremental
// preprocessing state, persists calibrated thresholds across restarts,
// and exposes Prometheus-format runtime metrics.
//
// Usage:
//
//	elsaserve [-addr :8080] [-max-batch 64] [-queue 256]
//	          [-attend-workers 0] [-timeout 30s]
//	          [-replicas 0] [-max-engines 8]
//	          [-max-sessions 1024] [-session-ttl 15m] [-session-tokens 65536]
//	          [-state-dir /var/lib/elsa] [-max-threshold-files 512]
//	          [-session-spill 0] [-cold-watermark 0]
//	          [-quota-rps 0] [-quota-burst 0] [-class-weights 16,4,1]
//	          [-worker | -workers host:port,...]
//	          [-worker-probe-interval 5s] [-worker-inflight 32]
//	          [-worker-fail-limit 3] [-dispatch-retries 2]
//	          [-join http://frontend:8080 -advertise host:port]
//	          [-heartbeat-interval 5s] [-weight 1] [-drain-timeout 1m]
//	          [-autoscale] [-autoscale-interval 2s]
//	          [-exact-backend scores|linear-scan]
//
// Cross-host sharding: `-workers host:port,...` makes this server a fleet
// frontend — micro-batch ops route to the listed elsaserve workers
// alongside any local lanes, with periodic health probes, ejection
// after consecutive failures, and retry-with-rerouting for idempotent
// attend ops. `-worker` runs a plain worker serving internal traffic (the
// same endpoints; the flag just pins worker-appropriate defaults).
// (`-workers` previously named the per-batch attention worker count; that
// flag is now `-attend-workers`.)
//
// Elastic membership: `-join` points a worker at a frontend's
// /v1/cluster/join — the worker registers itself as `-advertise` and
// heartbeats every `-heartbeat-interval`, so it starts taking traffic
// without a frontend restart and is expired after ~3 missed heartbeats.
// Frontends accept joins with no extra flags; `-workers` remains the
// static seed list and both sources mix freely. POST /v1/drain (or a
// frontend's POST /v1/cluster/drain) drains a server: no new sessions,
// pinned ones are live-migrated onto other members (cluster drain) or
// finish in place, with stragglers force-expired after `-drain-timeout`.
//
// Portable session state: every session's stream serializes to a
// versioned binary blob (POST /v1/sessions/{id}/export) that another
// server rebuilds bit-identically (POST /v1/sessions/import) — the
// substrate for live migration, worker-loss recovery from the frontend's
// shadow copies, and `-session-spill`, which pages sessions idle longer
// than the given duration out to `-state-dir` until their next query.
// `-cold-watermark N` bounds each stream's resident f32 hot tail to at
// most 2N tokens, demoting older entries to the bit-packed cold
// representation the paper's approximate pipeline scores against.
//
// Autoscaling: `-autoscale` runs the elsactl controller in-process on a
// frontend — it watches this server's own GET /v1/cluster signals block
// (queue depth, windowed shed rate, batch occupancy) and closes the loop
// by draining idle members and rebalancing sessions toward fresh
// joiners; scale-out advice is logged for the operator, since launching
// capacity is outside the process. Run `elsactl` as a sidecar instead
// when the controller should survive frontend restarts.
//
// Request envelope: every POST body is the v1 envelope {"op": <payload>}
// (plus optional client_id / priority / deadline_ms); a bare payload is
// rejected with a 400 hint to wrap it.
//
// Endpoints:
//
//	POST   /v1/attend               one Q/K/V attention op with degree-of-approximation p
//	POST   /v1/sessions             open an autoregressive decode session
//	POST   /v1/sessions/{id}/append append token key/value(s) to a session
//	POST   /v1/sessions/{id}/query  one decode step over the session prefix
//	POST   /v1/sessions/{id}/export serialize the session's portable state
//	POST   /v1/sessions/import      adopt an exported session under its original ID
//	POST   /v1/sessions/step        one decode step across many sessions (a wave)
//	DELETE /v1/sessions/{id}        close a session
//	GET    /v1/healthz              liveness plus resident engine and session counts
//	GET    /v1/metrics              Prometheus text-format counters and histograms
//	POST   /v1/cluster/join         worker self-registration and heartbeat
//	GET    /v1/cluster              versioned (schema_version 1) membership targets + autoscale signals
//	POST   /v1/cluster/drain        drain one member (rolling upgrade / scale-in)
//	POST   /v1/cluster/rebalance    migrate sessions toward one member (scale-out settling)
//	POST   /v1/drain                drain this server: refuse new sessions, finish pinned ones
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops, queued
// micro-batches are dispatched and drained, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/autoscale"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cfg := serve.Config{}
	flag.IntVar(&cfg.MaxBatch, "max-batch", 64, "most ops one lane harvests into a batch")
	flag.IntVar(&cfg.MaxQueue, "queue", 256, "bounded dispatcher queue; overflow answers 429")
	flag.IntVar(&cfg.Workers, "attend-workers", 0, "attention workers per batch (0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", 30*time.Second, "per-request queue+compute deadline")
	flag.IntVar(&cfg.Replicas, "replicas", 0, "local dispatch lanes per configuration (0 = 2 standalone, dispatch-only with -workers)")
	flag.IntVar(&cfg.MaxEngines, "max-engines", 8, "bounded engine pool; LRU eviction beyond this many configurations")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", 1024, "bounded session registry; LRU eviction at capacity")
	flag.DurationVar(&cfg.SessionTTL, "session-ttl", 15*time.Minute, "evict sessions idle longer than this (negative disables)")
	flag.IntVar(&cfg.MaxSessionTokens, "session-tokens", 65536, "per-session appended-token limit")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "persist calibrated thresholds (and spilled sessions) here across restarts (empty = memory only)")
	flag.IntVar(&cfg.MaxThresholdFiles, "max-threshold-files", 512, "cap on threshold files kept in -state-dir, LRU-evicted beyond it (negative = unbounded)")
	flag.DurationVar(&cfg.SessionSpill, "session-spill", 0, "page sessions idle longer than this out to -state-dir (0 = off; requires -state-dir)")
	flag.IntVar(&cfg.ColdWatermark, "cold-watermark", 0, "bound each session stream's resident f32 hot tail to 2x this many tokens; older entries demote to the bit-packed cold form (0 = all hot)")
	flag.Float64Var(&cfg.QuotaRPS, "quota-rps", 0, "per-client admission rate in ops/s, keyed by envelope client_id (0 = quotas off)")
	flag.Float64Var(&cfg.QuotaBurst, "quota-burst", 0, "per-client token-bucket burst (0 = max(1, quota-rps))")
	weights := flag.String("class-weights", "16,4,1", "weighted-dequeue shares for interactive,batch,background traffic")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
	workerMode := flag.Bool("worker", false, "run as a fleet worker: serve internal traffic from a frontend (incompatible with -workers)")
	workerAddrs := flag.String("workers", "", "comma-separated remote worker addresses (host:port or URLs); makes this server a fleet frontend")
	flag.DurationVar(&cfg.WorkerProbeInterval, "worker-probe-interval", 5*time.Second, "how often each remote worker's /v1/healthz is probed")
	flag.IntVar(&cfg.WorkerInFlight, "worker-inflight", 32, "max concurrent ops on the wire per remote worker")
	flag.IntVar(&cfg.WorkerFailLimit, "worker-fail-limit", 3, "eject a worker after this many consecutive probe/dispatch failures")
	flag.IntVar(&cfg.DispatchRetries, "dispatch-retries", 2, "reroute a failed idempotent op to a sibling shard this many times")
	join := flag.String("join", "", "frontend URL to self-register with (worker mode; requires -advertise)")
	advertise := flag.String("advertise", "", "address the frontend dials back when joined via -join (host:port or URL)")
	heartbeat := flag.Duration("heartbeat-interval", 5*time.Second, "re-join cadence when joined via -join (floor 1s)")
	weight := flag.Int("weight", 1, fmt.Sprintf("this worker's share of session keyspace on the frontend's hash ring (0-%d)", serve.MaxWeight))
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", time.Minute, "force-expire sessions still pinned this long after POST /v1/drain (negative waits forever)")
	flag.StringVar(&cfg.ExactBackend, "exact-backend", "", "default backend for exact ops (p=0) that don't pin one: 'scores' or 'linear-scan' (empty = scores pipeline)")
	autoscaleOn := flag.Bool("autoscale", false, "run the autoscale controller in-process: drain idle members, rebalance toward joiners, log scale-out advice")
	autoscaleInterval := flag.Duration("autoscale-interval", 2*time.Second, "in-process autoscale polling cadence")
	flag.Parse()

	cw, err := parseClassWeights(*weights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsaserve:", err)
		os.Exit(2)
	}
	cfg.ClassWeights = cw

	if !elsa.ValidBackend(cfg.ExactBackend) {
		fmt.Fprintf(os.Stderr, "elsaserve: -exact-backend %q: want %q or %q\n",
			cfg.ExactBackend, elsa.BackendScores, elsa.BackendLinearScan)
		os.Exit(2)
	}

	if *workerAddrs != "" {
		if *workerMode {
			fmt.Fprintln(os.Stderr, "elsaserve: -worker and -workers are mutually exclusive (a worker does not dispatch to other workers)")
			os.Exit(2)
		}
		for _, a := range strings.Split(*workerAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.WorkerAddrs = append(cfg.WorkerAddrs, a)
			}
		}
	}

	if *weight < 0 || *weight > serve.MaxWeight {
		fmt.Fprintf(os.Stderr, "elsaserve: -weight must be between 0 and %d, got %d\n", serve.MaxWeight, *weight)
		os.Exit(2)
	}
	hb := heartbeatConfig{interval: *heartbeat, weight: *weight}
	if *join != "" {
		if *workerAddrs != "" {
			fmt.Fprintln(os.Stderr, "elsaserve: -join and -workers are mutually exclusive (a worker does not dispatch to other workers)")
			os.Exit(2)
		}
		if *advertise == "" {
			fmt.Fprintln(os.Stderr, "elsaserve: -join requires -advertise (the address the frontend dials back)")
			os.Exit(2)
		}
		hb.frontend = strings.TrimSpace(*join)
		hb.advertise = strings.TrimSpace(*advertise)
		if hb.interval < time.Second {
			hb.interval = time.Second
		}
	}

	var asInterval time.Duration
	if *autoscaleOn {
		if *workerMode || *join != "" {
			fmt.Fprintln(os.Stderr, "elsaserve: -autoscale is a frontend concern (incompatible with -worker / -join)")
			os.Exit(2)
		}
		asInterval = *autoscaleInterval
		if asInterval < 100*time.Millisecond {
			asInterval = 100 * time.Millisecond
		}
	}

	if err := run(*addr, cfg, *drain, hb, asInterval); err != nil {
		fmt.Fprintln(os.Stderr, "elsaserve:", err)
		os.Exit(1)
	}
}

// heartbeatConfig carries the -join/-advertise/-heartbeat-interval
// trio into run; an empty frontend means no self-registration.
type heartbeatConfig struct {
	frontend  string
	advertise string
	interval  time.Duration
	weight    int
}

// parseClassWeights parses "16,4,1" into the interactive,batch,background
// dequeue shares.
func parseClassWeights(s string) ([3]int, error) {
	var w [3]int
	parts := strings.Split(s, ",")
	if len(parts) != len(w) {
		return w, fmt.Errorf("-class-weights wants 3 comma-separated integers (interactive,batch,background), got %q", s)
	}
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return w, fmt.Errorf("-class-weights entry %d must be a positive integer, got %q", i, part)
		}
		w[i] = v
	}
	return w, nil
}

func run(addr string, cfg serve.Config, drain time.Duration, hb heartbeatConfig, autoscaleEvery time.Duration) error {
	srv := serve.New(cfg)
	hs := &http.Server{Addr: addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	role := "standalone"
	if len(cfg.WorkerAddrs) > 0 {
		role = fmt.Sprintf("frontend (%d workers)", len(cfg.WorkerAddrs))
	}
	if hb.frontend != "" {
		role = fmt.Sprintf("worker (joining %s as %s)", hb.frontend, hb.advertise)
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "elsaserve: listening on %s as %s (max-batch %d, queue %d, replicas %d)\n",
			addr, role, cfg.MaxBatch, cfg.MaxQueue, cfg.Replicas)
		errc <- hs.ListenAndServe()
	}()

	var beater *serve.Heartbeater
	if hb.frontend != "" {
		beater = serve.NewHeartbeater(hb.frontend, hb.advertise, hb.interval, hb.weight, srv)
		beater.Start()
	}

	if autoscaleEvery > 0 {
		// The controller talks to this very server over loopback: the
		// same versioned cluster API elsactl uses, so in-process and
		// sidecar deployments are behaviorally identical.
		self := addr
		if strings.HasPrefix(self, ":") {
			self = "127.0.0.1" + self
		}
		ctl := autoscale.NewController("http://" + self)
		ctl.Interval = autoscaleEvery
		ctl.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "elsaserve: "+format+"\n", args...)
		}
		ctl.OnScaleOut = func(adv autoscale.Advice) {
			fmt.Fprintf(os.Stderr, "elsaserve: autoscale advises scale-out: %s — launch a worker with -join to absorb it\n", adv.Reason)
		}
		go ctl.Run(ctx) //nolint:errcheck // exits with ctx at shutdown
	}

	select {
	case err := <-errc:
		if beater != nil {
			beater.Stop()
		}
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "elsaserve: shutting down, draining in-flight batches")
	if beater != nil {
		beater.Stop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if lerr := <-errc; lerr != nil && !errors.Is(lerr, http.ErrServerClosed) {
		return lerr
	}
	fmt.Fprintf(os.Stderr, "elsaserve: drained (mean batch size %.2f)\n", srv.Metrics().MeanBatchSize())
	return nil
}
