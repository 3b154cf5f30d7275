package serve_test

// End-to-end autoscale-loop suite: a real autoscale.Controller drives a
// servetest fake fleet through the frontend's versioned cluster API —
// load ramp to scale-out advice, joiner absorption via rebalance, idle
// scale-in via drain — with every session answer bit-identical to an
// undisturbed single-host reference and zero non-drain 5xx. Run under
// -race by ci.sh.

import (
	"context"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/autoscale"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// TestAutoscaleLoadRampAdvisesScaleOut holds a ramp of concurrent attends
// against a deliberately slow one-worker fleet and requires the
// controller to surface scale-out advice from the real queue-depth
// signal — while every op still completes bit-identical to single-host.
func TestAutoscaleLoadRampAdvisesScaleOut(t *testing.T) {
	ops := rtOps(24)
	want := singleHostResults(t, ops)

	front := dynamicFront()
	front.MaxBatch = 2 // small batches stack up behind the slow worker
	cl := servetest.NewDynamicCluster(front)
	defer cl.Close()
	w, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.SetLatency(30 * time.Millisecond)

	ctl := autoscale.NewController(cl.URL())
	ctl.Policy = autoscale.New(autoscale.Config{
		ScaleOutQueue: 4,
		HoldSteps:     2,
		CooldownSteps: 2,
	})
	scaleOut := make(chan autoscale.Advice, 1)
	ctl.OnScaleOut = func(adv autoscale.Advice) {
		select {
		case scaleOut <- adv:
		default:
		}
	}

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

	// Step the controller on a tight cadence while the ramp is in flight:
	// the hot band must hold and fire before the queue drains.
	deadline := time.Now().Add(10 * time.Second)
	fired := false
	for !fired && time.Now().Before(deadline) {
		if _, err := ctl.Step(context.Background()); err != nil {
			t.Fatalf("controller step during ramp: %v", err)
		}
		select {
		case adv := <-scaleOut:
			if adv.Action != autoscale.ActionScaleOut {
				t.Fatalf("OnScaleOut saw %s, want scale-out", adv)
			}
			fired = true
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	wg.Wait()
	if !fired {
		t.Fatal("load ramp never produced scale-out advice")
	}
	for i := range ops {
		if errs[i] != nil {
			t.Fatalf("op %d failed during ramp: %v", i, errs[i])
		}
		if !sameContext(got[i], want[i]) {
			t.Fatalf("op %d: result under autoscale load ramp differs from single-host", i)
		}
	}
}

// TestAutoscaleJoinerRebalanceThenIdleDrain runs the whole closed loop on
// a fake fleet: pinned sessions on one worker, a joiner arrives, the
// controller rebalances sessions onto it, and once the fleet idles the
// cold band drains a member — with session answers bit-identical to a
// standalone reference before, during, and after, and no call anywhere
// failing (zero non-drain 5xx).
func TestAutoscaleJoinerRebalanceThenIdleDrain(t *testing.T) {
	cl := servetest.NewDynamicCluster(dynamicFront())
	defer cl.Close()
	if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Reference standalone server mirrors every session op bit-exactly.
	ref := servetest.NewWorker(serve.Config{Replicas: 1})
	defer ref.Close()
	refCli := client.New(ref.URL())

	c := client.New(cl.URL())
	type pair struct{ sess, mirror *client.Session }
	var pairs []pair
	key := func(i, j int) []float32 {
		v := make([]float32, rtDim)
		v[i%rtDim] = 1
		v[(i+j)%rtDim] = 0.5
		return v
	}
	for i := 0; i < 12; i++ {
		s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 11})
		if err != nil {
			t.Fatalf("session create %d: %v", i, err)
		}
		m, err := refCli.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 11})
		if err != nil {
			t.Fatalf("reference session create %d: %v", i, err)
		}
		pairs = append(pairs, pair{s, m})
	}
	stepAll := func(round int) {
		t.Helper()
		for i, p := range pairs {
			k := key(i, round)
			if _, err := p.sess.Append(context.Background(), k, k); err != nil {
				t.Fatalf("append session %d round %d: %v", i, round, err)
			}
			if _, err := p.mirror.Append(context.Background(), k, k); err != nil {
				t.Fatalf("append mirror %d round %d: %v", i, round, err)
			}
			got, err := p.sess.Query(context.Background(), k, elsa.Overrides{})
			if err != nil {
				t.Fatalf("query session %d round %d: %v", i, round, err)
			}
			wantQ, err := p.mirror.Query(context.Background(), k, elsa.Overrides{})
			if err != nil {
				t.Fatalf("query mirror %d round %d: %v", i, round, err)
			}
			for j := range wantQ.Context {
				if got.Context[j] != wantQ.Context[j] {
					t.Fatalf("session %d round %d: context[%d] = %v, want %v (not bit-identical)",
						i, round, j, got.Context[j], wantQ.Context[j])
				}
			}
		}
	}
	pinnedOn := func() map[string]int {
		t.Helper()
		view, err := c.Cluster(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, m := range view.Members {
			out[m.Addr] = m.PinnedSessions
		}
		return out
	}
	stepAll(0)

	joiner, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinnedOn()[joiner.URL()]; got != 0 {
		t.Fatalf("joiner holds %d sessions before any rebalance", got)
	}

	// Drive the controller exactly as elsactl would. The imbalance band
	// fires a rebalance toward the joiner; once balanced (or settled), the
	// idle fleet builds a cold streak and the controller drains a member.
	ctl := autoscale.NewController(cl.URL())
	ctl.Policy = autoscale.New(autoscale.Config{HoldSteps: 2, CooldownSteps: 1})
	var rebalanced, drained bool
	var drainTarget string
	ctl.OnAdvice = func(adv autoscale.Advice, err error) {
		if err != nil {
			t.Errorf("apply %s: %v", adv, err)
		}
		switch adv.Action {
		case autoscale.ActionRebalance:
			rebalanced = true
		case autoscale.ActionScaleIn:
			drained = true
			drainTarget = adv.Target
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for !drained && time.Now().Before(deadline) {
		if _, err := ctl.Step(context.Background()); err != nil {
			t.Fatalf("controller step: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !rebalanced {
		t.Fatal("controller never issued a rebalance toward the joiner")
	}
	if !drained {
		t.Fatal("idle fleet never triggered a scale-in drain")
	}

	// Sessions landed on the joiner before the drain reshuffled them.
	if pinnedOn()[joiner.URL()] == 0 && drainTarget != joiner.URL() {
		t.Errorf("rebalance fired but no session ever landed on the joiner")
	}
	if err := cl.WaitState(drainTarget, "draining", 5*time.Second); err != nil {
		// The drain relocates fast; the member may already be past
		// draining. Either state proves the controller acted.
		if werr := cl.WaitState(drainTarget, "gone", time.Second); werr != nil {
			t.Fatalf("drained member never left active: %v", err)
		}
	}

	// Every session keeps answering bit-identically through and after the
	// controller-driven drain — relocations included.
	stepAll(1)
	stepAll(2)

	// Fresh sessions still place (on whatever remains active) without a
	// single 5xx at the frontend.
	for i := 0; i < 8; i++ {
		if _, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 11}); err != nil {
			t.Fatalf("post-drain session create %d: %v", i, err)
		}
	}
}
