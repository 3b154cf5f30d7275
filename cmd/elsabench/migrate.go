package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"time"

	"elsa"
	"elsa/internal/experiments"
	"elsa/internal/serve"
	"elsa/serve/client"
)

// MigrateRow is one portable-session-state measurement at a {tokens,
// cold watermark} operating point: how much memory one decode session
// holds resident, how large its wire-format export is, how fast whole
// sessions move between two live servers over the HTTP export/import
// path, and how long the engine takes to rehydrate the exported blob.
type MigrateRow struct {
	// Tokens is the session's appended prefix length.
	Tokens int `json:"tokens"`
	// ColdWatermark is the hot f32 tail size; 0 keeps the whole prefix
	// hot (the pre-cold-split layout), >0 bit-packs everything older.
	ColdWatermark int `json:"cold_watermark"`
	// ResidentBytes is the in-memory footprint of one session's stream.
	ResidentBytes int `json:"resident_bytes"`
	// WireBytes is the size of the versioned export blob for the same
	// stream — what a migration or spill actually ships.
	WireBytes int `json:"wire_bytes"`
	// MigrationsPerSec is whole-session moves per second between two
	// live servers: export on the source, close, import on the target.
	MigrationsPerSec float64 `json:"migrations_per_sec"`
	// RehydrateP50Ms / RehydrateP99Ms are engine-level ImportStream
	// latency percentiles over the exported blob — the cost a lazily
	// rehydrated (spilled) session pays on its first request back.
	RehydrateP50Ms float64 `json:"rehydrate_p50_ms"`
	RehydrateP99Ms float64 `json:"rehydrate_p99_ms"`
}

// migrateRows measures portable session state at hot (watermark 0) and
// cold-heavy (watermark 512) layouts. The 4096-token cold-heavy row is
// the headline point: its resident bytes/session against the hot row of
// the same length is the cold-split memory win.
func migrateRows(opt experiments.Options) ([]MigrateRow, error) {
	const (
		dim       = 64
		watermark = 512
	)
	var rows []MigrateRow
	for _, tokens := range []int{1024, 4096} {
		for _, wm := range []int{0, watermark} {
			row, err := migratePoint(opt, tokens, wm, dim)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// migratePoint runs one {tokens, watermark} operating point: resident
// and wire sizes plus rehydrate latency straight against the engine,
// then migration throughput over HTTP between two real serve.Servers.
func migratePoint(opt experiments.Options, tokens, watermark, dim int) (MigrateRow, error) {
	eng, err := elsa.New(elsa.Options{HeadDim: dim, Seed: opt.Seed})
	if err != nil {
		return MigrateRow{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + int64(tokens) + int64(watermark)))
	st := eng.NewStreamCold(tokens, watermark)
	keys := make([][]float32, tokens)
	vals := make([][]float32, tokens)
	for i := 0; i < tokens; i++ {
		keys[i], vals[i] = benchVec(rng, dim), benchVec(rng, dim)
		if err := st.Append(keys[i], vals[i]); err != nil {
			return MigrateRow{}, fmt.Errorf("migrate append: %w", err)
		}
	}
	resident := st.StateBytes()
	blob := st.Export()

	// Rehydrate latency: the blob → live stream path a spilled session
	// takes on its first request after eviction to the state dir.
	reps := 20 * opt.Instances
	lat := make([]float64, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := eng.ImportStream(blob); err != nil {
			return MigrateRow{}, fmt.Errorf("migrate rehydrate: %w", err)
		}
		lat[r] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	sort.Float64s(lat)

	perSec, err := migrationChurn(opt, tokens, watermark, dim, keys, vals)
	if err != nil {
		return MigrateRow{}, err
	}
	return MigrateRow{
		Tokens:           tokens,
		ColdWatermark:    watermark,
		ResidentBytes:    resident,
		WireBytes:        len(blob),
		MigrationsPerSec: perSec,
		RehydrateP50Ms:   percentile(lat, 0.50),
		RehydrateP99Ms:   percentile(lat, 0.99),
	}, nil
}

// migrationChurn bounces one live session between two servers over the
// HTTP export/import path and reports whole-session moves per second.
// A query before the first move and after the last pins bit-identical
// state across every hop.
func migrationChurn(opt experiments.Options, tokens, watermark, dim int, keys, vals [][]float32) (float64, error) {
	mk := func() (*serve.Server, *httptest.Server) {
		srv := serve.New(serve.Config{
			MaxBatch:      64,
			MaxQueue:      2048,
			Replicas:      1,
			ColdWatermark: watermark,
		})
		return srv, httptest.NewServer(srv)
	}
	srvA, tsA := mk()
	defer srvA.Close()
	defer tsA.Close()
	srvB, tsB := mk()
	defer srvB.Close()
	defer tsB.Close()
	clients := [2]*client.Client{client.New(tsA.URL), client.New(tsB.URL)}

	ctx := context.Background()
	// A pinned threshold keeps every hop free of lazy calibration; the
	// exported state carries it to the importing server.
	thr := elsa.Threshold{P: 1, T: 0.5}
	sess, err := clients[0].NewSession(ctx, client.SessionOptions{
		Overrides: elsa.Overrides{Thr: &thr},
		HeadDim:   dim,
		Seed:      opt.Seed,
		Capacity:  tokens,
	})
	if err != nil {
		return 0, fmt.Errorf("migrate session create: %w", err)
	}
	if _, err := sess.AppendBatch(ctx, keys, vals); err != nil {
		return 0, fmt.Errorf("migrate session append: %w", err)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 77))
	q := benchVec(rng, dim)
	before, err := sess.Query(ctx, q, elsa.Overrides{})
	if err != nil {
		return 0, fmt.Errorf("migrate pre-move query: %w", err)
	}

	moves := 4 * opt.Instances
	start := time.Now()
	for m := 0; m < moves; m++ {
		state, err := sess.Export(ctx)
		if err != nil {
			return 0, fmt.Errorf("migrate move %d export: %w", m, err)
		}
		if err := sess.Close(ctx); err != nil {
			return 0, fmt.Errorf("migrate move %d close: %w", m, err)
		}
		sess, err = clients[(m+1)%2].ImportSession(ctx, state)
		if err != nil {
			return 0, fmt.Errorf("migrate move %d import: %w", m, err)
		}
	}
	wall := time.Since(start)

	after, err := sess.Query(ctx, q, elsa.Overrides{})
	if err != nil {
		return 0, fmt.Errorf("migrate post-move query: %w", err)
	}
	if !sameVec(before.Context, after.Context) {
		return 0, fmt.Errorf("migrate (tokens=%d watermark=%d): output diverged after %d moves", tokens, watermark, moves)
	}
	return float64(moves) / wall.Seconds(), nil
}

// sameVec reports bitwise equality of two float32 vectors.
func sameVec(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// kib renders a byte count as KiB with one decimal.
func kib(n int) string {
	return fmt.Sprintf("%.1fKiB", float64(n)/1024)
}

func printMigrate(rows []MigrateRow, _ experiments.Options) error {
	header("migrate: portable session state — resident footprint, wire size, live moves")
	fmt.Printf("%7s %10s %14s %12s %9s %17s %17s\n",
		"tokens", "watermark", "resident/sess", "wire bytes", "moves/s", "rehydrate p50(ms)", "rehydrate p99(ms)")
	for _, r := range rows {
		fmt.Printf("%7d %10d %14s %12s %9.1f %17.2f %17.2f\n",
			r.Tokens, r.ColdWatermark, kib(r.ResidentBytes), kib(r.WireBytes),
			r.MigrationsPerSec, r.RehydrateP50Ms, r.RehydrateP99Ms)
	}
	printMigrateReductions(rows)
	fmt.Println("(each move exports the whole session over HTTP, closes it on the source and")
	fmt.Println(" imports it on the other server; a query before the first hop and after the")
	fmt.Println(" last pins bit-identical output, and rehydrate rows time the blob -> stream")
	fmt.Println(" path a spilled session pays on its first request back)")
	return nil
}

// printMigrateReductions pairs each cold row with the hot (watermark 0)
// row of the same length and prints the resident-memory reduction — the
// cold-split win the 4096-token point is sized to demonstrate (>=2x).
func printMigrateReductions(rows []MigrateRow) {
	hot := make(map[int]MigrateRow, len(rows))
	for _, r := range rows {
		if r.ColdWatermark == 0 {
			hot[r.Tokens] = r
		}
	}
	for _, r := range rows {
		if r.ColdWatermark == 0 {
			continue
		}
		base, ok := hot[r.Tokens]
		if !ok || r.ResidentBytes <= 0 {
			continue
		}
		fmt.Printf("tokens=%-5d watermark=%-4d: %.2fx less resident memory per session than all-hot (%s vs %s)\n",
			r.Tokens, r.ColdWatermark, float64(base.ResidentBytes)/float64(r.ResidentBytes),
			kib(r.ResidentBytes), kib(base.ResidentBytes))
	}
}

// percentile reads the q-quantile from an ascending-sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// benchVec draws one dim-length vector from rng.
func benchVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}
