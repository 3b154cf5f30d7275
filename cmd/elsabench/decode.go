package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"elsa"
	"elsa/internal/experiments"
	"elsa/internal/serve"
	"elsa/serve/client"
)

// Decode bench modes. "concurrent" drives the per-query HTTP API with
// every session in flight at once against continuous decode batching,
// showing how much coalescing independent per-query clients get. "step" submits the whole wave through
// POST /v1/sessions/step — one request per decode wave — so the fixed
// per-request cost is paid once per wave and the loop dispatches the
// wave as shared batches; this is how a model runner drives N
// sequences, and where the aggregate-throughput win lives.
const (
	decodeConcurrent = "concurrent"
	decodeStep       = "step"
)

// DecodeRow is one continuous-decode-batching measurement: N live decode
// sessions — each with its own pinned threshold, so every batch is a
// mixed-operating-point batch — stepped over HTTP against a real
// serve.Server in one of the modes above.
type DecodeRow struct {
	Sessions    int    `json:"sessions"`
	Concurrency int    `json:"concurrency"`
	Mode        string `json:"mode"`
	// Tokens is the number of decode steps completed across all sessions.
	Tokens int `json:"tokens"`
	// TokensPerSec is aggregate decode throughput: Tokens over wall time.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// P50Ms / P99Ms are end-to-end latency percentiles — per query in the
	// per-query modes, per wave in step mode.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MeanBatch is the server's mean decode dispatch size — how many
	// cross-session queries each continuous-loop harvest coalesced.
	MeanBatch float64 `json:"mean_batch"`
}

// decodeRows measures continuous decode batching at increasing session
// counts. Thresholds are pinned per session
// (no lazy calibration) so the rows isolate decode scheduling cost, and
// the prefix is fixed during the timed phase so every step does the
// same attention work in every mode.
func decodeRows(opt experiments.Options) ([]DecodeRow, error) {
	const (
		dim    = 64
		prefix = 96
	)
	steps := 15 * opt.Instances

	var rows []DecodeRow
	for _, sessions := range []int{4, 16, 64} {
		for _, mode := range []string{decodeConcurrent, decodeStep} {
			row, err := decodeLoad(opt, sessions, steps, dim, prefix, mode)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// decodeLoad runs one {sessions, mode} operating point end to end over
// HTTP.
func decodeLoad(opt experiments.Options, sessions, steps, dim, prefix int, mode string) (DecodeRow, error) {
	srv := serve.New(serve.Config{
		MaxBatch: 64,
		MaxQueue: 2048,
		Replicas: 1,
	})
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	// The default transport caps idle conns per host at 2; at 64-way
	// concurrency that would churn a fresh TCP connection per request
	// and the row would measure connection setup, not decode batching.
	tr := &http.Transport{MaxIdleConns: 2 * sessions, MaxIdleConnsPerHost: 2 * sessions}
	defer tr.CloseIdleConnections()
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr}))

	ctx := context.Background()
	handles := make([]*client.Session, sessions)
	queries := make([][][]float32, sessions)
	for i := 0; i < sessions; i++ {
		// A spread of pinned operating points: every batch the loop
		// harvests carries per-op thresholds, the mixed-session case.
		thr := elsa.Threshold{P: 1, T: 0.3 + 0.4*float64(i)/float64(sessions)}
		sess, err := c.NewSession(ctx, client.SessionOptions{
			Overrides: elsa.Overrides{Thr: &thr},
			HeadDim:   dim,
			Seed:      opt.Seed,
			Capacity:  prefix,
		})
		if err != nil {
			return DecodeRow{}, fmt.Errorf("decode session %d create: %w", i, err)
		}
		handles[i] = sess
		rng := rand.New(rand.NewSource(opt.Seed + int64(i)))
		keys := make([][]float32, prefix)
		vals := make([][]float32, prefix)
		for j := range keys {
			keys[j], vals[j] = benchVec(rng, dim), benchVec(rng, dim)
		}
		if _, err := sess.AppendBatch(ctx, keys, vals); err != nil {
			return DecodeRow{}, fmt.Errorf("decode session %d append: %w", i, err)
		}
		queries[i] = make([][]float32, steps)
		for s := range queries[i] {
			queries[i][s] = benchVec(rng, dim)
		}
		// One warm-up step per session outside the timed run: engine
		// wiring, connection establishment, decode-job buffers.
		if _, err := sess.Query(ctx, queries[i][0], elsa.Overrides{}); err != nil {
			return DecodeRow{}, fmt.Errorf("decode session %d warm-up: %w", i, err)
		}
	}

	tokens := sessions * steps
	var latencies []float64
	start := time.Now()
	if mode == decodeStep {
		// One request per decode wave, every session in it — so server-side
		// concurrency is the wave width even though the client pipeline is
		// one wave at a time, exactly a model runner's decode loop.
		latencies = make([]float64, steps)
		wave := make([]client.StepQuery, sessions)
		for s := 0; s < steps; s++ {
			for i := range wave {
				wave[i] = client.StepQuery{Session: handles[i], Q: queries[i][s]}
			}
			t0 := time.Now()
			results, err := c.Step(ctx, wave)
			latencies[s] = float64(time.Since(t0).Microseconds()) / 1e3
			if err != nil {
				return DecodeRow{}, fmt.Errorf("decode step wave: %w", err)
			}
			for i, r := range results {
				if r.Err != nil {
					return DecodeRow{}, fmt.Errorf("decode step session %d: %w", i, r.Err)
				}
			}
		}
	} else {
		latencies = make([]float64, tokens)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for s := 0; s < steps; s++ {
					t0 := time.Now()
					_, err := handles[i].Query(ctx, queries[i][s], elsa.Overrides{})
					latencies[i*steps+s] = float64(time.Since(t0).Microseconds()) / 1e3
					if err != nil && errs[i] == nil {
						errs[i] = err
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return DecodeRow{}, fmt.Errorf("decode load (sessions=%d): %w", sessions, err)
			}
		}
	}
	wall := time.Since(start)

	sort.Float64s(latencies)
	return DecodeRow{
		Sessions:     sessions,
		Concurrency:  sessions,
		Mode:         mode,
		Tokens:       tokens,
		TokensPerSec: float64(tokens) / wall.Seconds(),
		P50Ms:        percentile(latencies, 0.50),
		P99Ms:        percentile(latencies, 0.99),
		MeanBatch:    srv.Metrics().MeanDecodeBatchSize(),
	}, nil
}

// benchVec draws one dim-length vector from rng.
func benchVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// servingSnapshot is the combined BENCH_*_serving.json shape: the
// one-shot "serve" rows plus the decode-batching, session-migration,
// autoscale and exact-backend families, each under its own key.
type servingSnapshot struct {
	Serve     []ServingRow   `json:"serve"`
	Decode    []DecodeRow    `json:"decode,omitempty"`
	Migrate   []MigrateRow   `json:"migrate,omitempty"`
	Autoscale []AutoscaleRow `json:"autoscale,omitempty"`
	Exact     []ExactRow     `json:"exact,omitempty"`
}

func runDecode(opt experiments.Options) error {
	rows, err := decodeRows(opt)
	if err != nil {
		return err
	}
	header("decode: continuous cross-session batching")
	fmt.Printf("%9s %12s %11s %7s %10s %9s %9s %11s\n",
		"sessions", "concurrency", "mode", "tokens", "tokens/s", "p50(ms)", "p99(ms)", "mean-batch")
	for _, r := range rows {
		fmt.Printf("%9d %12d %11s %7d %10.0f %9.2f %9.2f %11.2f\n",
			r.Sessions, r.Concurrency, r.Mode, r.Tokens, r.TokensPerSec, r.P50Ms, r.P99Ms, r.MeanBatch)
	}
	fmt.Println("(each session holds a distinct pinned threshold, so every harvested batch")
	fmt.Println(" is a mixed-operating-point dispatch; concurrent rows keep every session's")
	fmt.Println(" per-query request in flight at once, and step rows submit each wave as one")
	fmt.Println(" POST /v1/sessions/step request)")
	return nil
}
