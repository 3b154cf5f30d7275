package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"elsa"
	"elsa/internal/experiments"
	"elsa/internal/serve"
	"elsa/internal/serve/autoscale"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// AutoscaleRow is one autoscale-loop measurement. Two scenarios share
// the row shape:
//
//   - "rebalance": a joiner arrives in a loaded fleet and the controller
//     migrates sessions toward it — Migrations counts the moved
//     sessions, ConvergeMS the wall time from the joiner activating to
//     the policy going quiet (fleet balanced).
//   - "mirror-batched": the steady-state cost of the frontend's shadow
//     mirror on the session append path, which replays every accepted
//     append inline — MirrorNsPerToken is replay nanoseconds per
//     appended token, the number DESIGN.md §14 reports. The key keeps
//     the name it had when replay ran batched on a background flusher,
//     so the row stays comparable with the committed pr9/pr10 rows.
type AutoscaleRow struct {
	Scenario   string  `json:"scenario"`
	Sessions   int     `json:"sessions"`
	Tokens     int     `json:"tokens,omitempty"`
	ConvergeMS float64 `json:"converge_ms,omitempty"`
	Migrations int     `json:"migrations,omitempty"`
	// MirrorNsPerToken is mirror-replay wall nanos per token appended
	// onto a shadowed session (0 when the scenario measures no mirrors).
	MirrorNsPerToken float64 `json:"mirror_ns_per_token,omitempty"`
}

// autoscaleFront is the frontend config both scenarios run.
var autoscaleFront = serve.Config{
	Replicas:            -1, // dispatch-only: sessions pin to workers
	WorkerProbeInterval: 25 * time.Millisecond,
	RequestTimeout:      10 * time.Second,
}

// autoscaleRows measures the closed autoscale loop: rebalance
// convergence after a joiner, and the shadow-mirror append overhead.
func autoscaleRows(opt experiments.Options) ([]AutoscaleRow, error) {
	sessions := 4 * opt.Instances
	if sessions > 48 {
		sessions = 48
	}
	reb, err := rebalanceRow(opt, sessions)
	if err != nil {
		return nil, err
	}
	mir, err := mirrorRow(opt, 8, 16*opt.Instances)
	if err != nil {
		return nil, err
	}
	return []AutoscaleRow{reb, mir}, nil
}

// rebalanceRow loads a one-worker fleet with pinned sessions, joins a
// second worker, and lets the autoscale controller settle the fleet.
func rebalanceRow(opt experiments.Options, sessions int) (AutoscaleRow, error) {
	cl := servetest.NewDynamicCluster(autoscaleFront)
	defer cl.Close()
	if _, err := cl.AddWorker(serve.Config{Replicas: 1}, 25*time.Millisecond, 5*time.Second); err != nil {
		return AutoscaleRow{}, err
	}

	const dim = 32
	ctx := context.Background()
	c := client.New(cl.URL())
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := 0; i < sessions; i++ {
		thr := elsa.Threshold{P: 1, T: 0.3}
		sess, err := c.NewSession(ctx, client.SessionOptions{
			Overrides: elsa.Overrides{Thr: &thr},
			HeadDim:   dim,
			Seed:      opt.Seed,
		})
		if err != nil {
			return AutoscaleRow{}, fmt.Errorf("autoscale session %d: %w", i, err)
		}
		if _, err := sess.Append(ctx, benchVec(rng, dim), benchVec(rng, dim)); err != nil {
			return AutoscaleRow{}, fmt.Errorf("autoscale append %d: %w", i, err)
		}
	}

	joiner, err := cl.AddWorker(serve.Config{Replicas: 1}, 25*time.Millisecond, 5*time.Second)
	if err != nil {
		return AutoscaleRow{}, err
	}

	// Drive the controller exactly as elsactl would, on a tight cadence,
	// until the policy goes quiet: balanced fleet, nothing left to move.
	// MinMembers 2 keeps the idle-band scale-in from draining the joiner
	// right back out from under the measurement.
	ctl := autoscale.NewController(cl.URL())
	ctl.Policy = autoscale.New(autoscale.Config{HoldSteps: 3, CooldownSteps: 1, MinMembers: 2})
	moved := 0
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	quiet := 0
	for quiet < 3 && time.Now().Before(deadline) {
		adv, err := ctl.Step(ctx)
		if err != nil {
			return AutoscaleRow{}, fmt.Errorf("autoscale step: %w", err)
		}
		if adv.Action == autoscale.ActionNone {
			quiet++
		} else {
			quiet = 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	converge := time.Since(start)

	view, err := c.Cluster(ctx)
	if err != nil {
		return AutoscaleRow{}, err
	}
	for _, m := range view.Members {
		if m.Addr == joiner.URL() {
			moved = m.PinnedSessions
		}
	}
	return AutoscaleRow{
		Scenario:   "rebalance",
		Sessions:   sessions,
		ConvergeMS: float64(converge.Microseconds()) / 1e3,
		Migrations: moved,
	}, nil
}

// mirrorRow measures the frontend's shadow-mirror replay cost per
// appended token with sessions pinned to a remote worker.
func mirrorRow(opt experiments.Options, sessions, tokensPer int) (AutoscaleRow, error) {
	cl := servetest.NewDynamicCluster(autoscaleFront)
	defer cl.Close()
	if _, err := cl.AddWorker(serve.Config{Replicas: 1}, 25*time.Millisecond, 5*time.Second); err != nil {
		return AutoscaleRow{}, err
	}

	const dim = 32
	ctx := context.Background()
	c := client.New(cl.URL())
	rng := rand.New(rand.NewSource(opt.Seed))
	handles := make([]*client.Session, sessions)
	for i := range handles {
		thr := elsa.Threshold{P: 1, T: 0.3}
		sess, err := c.NewSession(ctx, client.SessionOptions{
			Overrides: elsa.Overrides{Thr: &thr},
			HeadDim:   dim,
			Seed:      opt.Seed,
		})
		if err != nil {
			return AutoscaleRow{}, fmt.Errorf("mirror session %d: %w", i, err)
		}
		handles[i] = sess
	}
	for s := 0; s < tokensPer; s++ {
		for _, sess := range handles {
			if _, err := sess.Append(ctx, benchVec(rng, dim), benchVec(rng, dim)); err != nil {
				return AutoscaleRow{}, fmt.Errorf("mirror append: %w", err)
			}
		}
	}
	replayed, nanos := cl.Frontend.Metrics().MirrorReplay()
	row := AutoscaleRow{
		Scenario: "mirror-batched",
		Sessions: sessions,
		Tokens:   int(replayed),
	}
	if replayed > 0 {
		row.MirrorNsPerToken = float64(nanos) / float64(replayed)
	}
	return row, nil
}

func printAutoscale(rows []AutoscaleRow, _ experiments.Options) error {
	header("autoscale: closed-loop convergence and shadow-mirror cost")
	fmt.Printf("%-14s %9s %8s %13s %11s %16s\n",
		"scenario", "sessions", "tokens", "converge(ms)", "migrations", "mirror ns/token")
	for _, r := range rows {
		fmt.Printf("%-14s %9d %8d %13.1f %11d %16.0f\n",
			r.Scenario, r.Sessions, r.Tokens, r.ConvergeMS, r.Migrations, r.MirrorNsPerToken)
	}
	fmt.Println("(rebalance: sessions migrate toward a fresh joiner until the policy goes")
	fmt.Println(" quiet; the mirror row times the inline shadow-mirror replay on the")
	fmt.Println(" append path)")
	return nil
}
