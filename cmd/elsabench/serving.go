package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"elsa/internal/experiments"
	"elsa/internal/serve"
	"elsa/serve/client"
)

// ServingRow is one serving-layer throughput measurement: the HTTP stack
// end to end (client, envelope decode, micro-batch dispatch, engine,
// response encode) at a fixed offered concurrency. Written by -json as the
// BENCH_*_serving.json trajectory — a separate family from the "bench"
// rows, which time the engine alone.
type ServingRow struct {
	// Replicas is the number of in-process engine replicas (dispatch
	// shards) the server ran with; the 1-vs-2 pair shows what shard
	// parallelism buys at the same offered load.
	Replicas    int `json:"replicas"`
	Concurrency int `json:"concurrency"`
	Ops         int `json:"ops"`
	// OpsPerSec is completed ops over wall time for the whole run.
	OpsPerSec float64 `json:"ops_per_sec"`
	// P50Ms / P99Ms are per-op end-to-end latency percentiles.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MeanBatch is the server's mean dispatched micro-batch size — how
	// much coalescing the offered load actually produced.
	MeanBatch float64 `json:"mean_batch"`
}

// servingRows drives a real serve.Server over HTTP at fixed concurrency,
// once per replica count. Exact ops (p = 0) keep the workload deterministic
// and calibration-free, so the rows isolate serving-stack cost rather than
// filter behaviour, which the "bench" rows already track.
func servingRows(opt experiments.Options) ([]ServingRow, error) {
	const (
		dim         = 64
		keys        = 96
		queries     = 2
		distinct    = 16
		concurrency = 16
	)
	ops := 120 * opt.Instances

	rng := rand.New(rand.NewSource(opt.Seed))
	mk := func(rows int) [][]float32 {
		m := make([][]float32, rows)
		for i := range m {
			m[i] = make([]float32, dim)
			for j := range m[i] {
				m[i][j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
	type op struct{ q, k, v [][]float32 }
	payloads := make([]op, distinct)
	for i := range payloads {
		payloads[i] = op{mk(queries), mk(keys), mk(keys)}
	}

	var rows []ServingRow
	for _, replicas := range []int{1, 2} {
		srv := serve.New(serve.Config{
			MaxBatch: 64,
			MaxQueue: 2048,
			Replicas: replicas,
		})
		ts := httptest.NewServer(srv)
		c := client.New(ts.URL)

		// One warm-up op builds the engine replicas outside the timed run.
		warm := payloads[0]
		if _, err := c.Attend(context.Background(), warm.q, warm.k, warm.v,
			client.AttendOptions{HeadDim: dim, Seed: opt.Seed}); err != nil {
			ts.Close()
			srv.Close()
			return nil, fmt.Errorf("serving warm-up (replicas=%d): %w", replicas, err)
		}

		latencies := make([]float64, ops)
		errs := make([]error, concurrency)
		var next sync.Mutex
		cursor := 0
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					next.Lock()
					i := cursor
					cursor++
					next.Unlock()
					if i >= ops {
						return
					}
					p := payloads[i%distinct]
					t0 := time.Now()
					_, err := c.Attend(context.Background(), p.q, p.k, p.v,
						client.AttendOptions{HeadDim: dim, Seed: opt.Seed})
					latencies[i] = float64(time.Since(t0).Microseconds()) / 1e3
					if err != nil && errs[w] == nil {
						errs[w] = err
					}
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(start)
		mean := srv.Metrics().MeanBatchSize()
		ts.Close()
		srv.Close()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("serving load (replicas=%d): %w", replicas, err)
			}
		}

		sort.Float64s(latencies)
		rows = append(rows, ServingRow{
			Replicas:    replicas,
			Concurrency: concurrency,
			Ops:         ops,
			OpsPerSec:   float64(ops) / wall.Seconds(),
			P50Ms:       percentile(latencies, 0.50),
			P99Ms:       percentile(latencies, 0.99),
			MeanBatch:   mean,
		})
	}
	return rows, nil
}

// percentile reads the q-quantile from an ascending-sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func runServe(opt experiments.Options) error {
	rows, err := servingRows(opt)
	if err != nil {
		return err
	}
	header("serving: HTTP attention service throughput (micro-batching dispatcher)")
	fmt.Printf("%9s %12s %6s %10s %9s %9s %11s\n",
		"replicas", "concurrency", "ops", "ops/s", "p50(ms)", "p99(ms)", "mean-batch")
	for _, r := range rows {
		fmt.Printf("%9d %12d %6d %10.0f %9.2f %9.2f %11.2f\n",
			r.Replicas, r.Concurrency, r.Ops, r.OpsPerSec, r.P50Ms, r.P99Ms, r.MeanBatch)
	}
	fmt.Println("(exact p=0 ops end to end through client, envelope, dispatcher and engine;")
	fmt.Println(" the 1-vs-2 replica pair shows what shard parallelism buys at fixed load)")
	return nil
}
