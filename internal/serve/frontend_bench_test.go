package serve_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// BenchmarkFrontendAppend measures a frontend's session append path end
// to end: a dispatch-only frontend with one worker, 8 sessions pinned to
// it, and one packed token appended per op, round robin. Each op crosses
// the frontend's HTTP handler, the worker's append and the replay onto
// the frontend's shadow mirror.
func BenchmarkFrontendAppend(b *testing.B) {
	const (
		sessions = 8
		dim      = 32
		distinct = 64
	)
	cl := servetest.NewCluster(1, serve.Config{
		Replicas:            -1,
		WorkerProbeInterval: 25 * time.Millisecond,
		RequestTimeout:      10 * time.Second,
	}, serve.Config{Replicas: 1})
	defer cl.Close()
	ctx := context.Background()
	c := client.New(cl.URL())
	handles := make([]*client.Session, sessions)
	for i := range handles {
		thr := elsa.Threshold{P: 1, T: 0.3}
		s, err := c.NewSession(ctx, client.SessionOptions{
			Overrides: elsa.Overrides{Thr: &thr},
			HeadDim:   dim,
			Seed:      rtSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = s
	}
	rng := rand.New(rand.NewSource(rtSeed))
	rows := make([][]float32, distinct)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, v := rows[i%distinct], rows[(i+1)%distinct]
		if _, err := handles[i%sessions].Append(ctx, k, v); err != nil {
			b.Fatal(err)
		}
	}
}
