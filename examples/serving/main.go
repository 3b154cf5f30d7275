// Serving: QoS admission control end to end, in one process.
//
// It starts the attention server with per-client quotas enabled, then
// drives it with the serve/client package: a flooding background client
// blows through its token bucket and is throttled with Retry-After,
// while a quiet interactive client's requests all complete untouched. A
// decode session shows the envelope's identity inheritance — session
// traffic is charged to its creator's quota.
//
//	go run ./examples/serving
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/serve/client"
)

const (
	headDim = 32
	seed    = 11
)

func main() {
	// 1. An in-process server with QoS on: each named client may sustain
	//    5 ops/s with a burst of 8.
	srv := serve.New(serve.Config{
		QuotaRPS:   5,
		QuotaBurst: 8,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("serving on %s (quota: 5 ops/s, burst 8 per client)\n\n", ts.URL)

	rng := rand.New(rand.NewSource(seed))
	q, k, v := randomAttention(rng, 24)
	opts := client.AttendOptions{HeadDim: headDim, Seed: seed}

	// 2. A background flooder: 30 requests as fast as the loop turns.
	//    Beyond its burst the server sheds with 429 + Retry-After.
	flooder := client.New(ts.URL,
		client.WithClientID("flooder"),
		client.WithPriority("background"))
	served, shed := 0, 0
	var lastHint time.Duration
	for i := 0; i < 30; i++ {
		_, err := flooder.Attend(context.Background(), q, k, v, opts)
		var apiErr *client.APIError
		switch {
		case err == nil:
			served++
		case errors.As(err, &apiErr) && apiErr.Status == 429:
			shed++
			lastHint = apiErr.RetryAfter
		default:
			log.Fatal(err)
		}
	}
	fmt.Printf("flooder:  %d served, %d shed by quota (last Retry-After hint: %s)\n",
		served, shed, lastHint)

	// 3. A quiet interactive client is unaffected: its trickle fits its
	//    own bucket, so every op completes while the flood is shed.
	quiet := client.New(ts.URL, client.WithClientID("quiet"))
	for i := 0; i < 5; i++ {
		res, err := quiet.Attend(context.Background(), q, k, v, opts)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("quiet:    op served (batch size %d, %.1f%% candidates) — isolated from the flood\n",
				res.BatchSize, 100*res.CandidateFraction)
		}
	}
	fmt.Println("quiet:    5/5 ops served")

	// 4. A decode session inherits its creator's identity: appends and
	//    queries below are charged to "quiet"'s bucket even though the
	//    individual requests carry no client_id.
	sess, err := quiet.NewSession(context.Background(), client.SessionOptions{HeadDim: headDim})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close(context.Background())
	tok := make([]float32, headDim)
	tok[0] = 1
	if _, err := sess.Append(context.Background(), tok, tok); err != nil {
		log.Fatal(err)
	}
	step, err := sess.Query(context.Background(), tok, elsa.Overrides{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session:  decode step over %d token(s), charged to its creator's quota\n", step.Len)

	// 5. The admission decisions are first-class metrics.
	fmt.Printf("\nadmission decisions: %v\n", srv.Metrics().AdmissionDecisions())
}

func randomAttention(rng *rand.Rand, n int) (q, k, v [][]float32) {
	mk := func() [][]float32 {
		m := make([][]float32, n)
		for i := range m {
			m[i] = make([]float32, headDim)
			for j := range m[i] {
				m[i][j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
	return mk(), mk(), mk()
}
