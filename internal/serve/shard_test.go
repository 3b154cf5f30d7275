package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"elsa"
)

// TestShardRoutingFairness drives many single-op batches at one engine
// configuration and checks the dispatcher actually spreads them across
// the configuration's replicas rather than pinning one shard.
func TestShardRoutingFairness(t *testing.T) {
	srv := New(Config{
		MaxBatch: 1, // every request dispatches as its own batch
		MaxQueue: 1024,
		Replicas: 3,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(29))
	q, k, v := genOp(rng, 2, 8)
	req := AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed}

	const requests = 30
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postAttend(t, ts.Client(), ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()

	perShard := srv.metrics.shardBatches.values()
	var total int64
	busy := 0
	for _, n := range perShard {
		total += n
		if n > 0 {
			busy++
		}
	}
	if total != requests {
		t.Errorf("shard batches sum to %d, want %d", total, requests)
	}
	if busy < 2 {
		t.Errorf("only %d shard(s) executed batches (%v), want >= 2 of %d replicas",
			busy, perShard, 3)
	}
}

// TestMixedThresholdsShareDispatch checks ops pinned to different
// operating points still coalesce into one micro-batch — each op carries
// its own threshold — and each comes back identical to an unbatched
// Attend at that op's threshold. The only lane is held busy until both
// ops have queued.
func TestMixedThresholdsShareDispatch(t *testing.T) {
	srv := New(Config{
		MaxBatch: 64,
		MaxQueue: 64,
		Replicas: 1,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	eng, err := elsa.New(elsa.Options{HeadDim: testDim, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	set, err := srv.pool.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(srv.disp, set)
	defer openAll(gates)
	occupy(t, srv.disp, set, gates)
	rng := rand.New(rand.NewSource(31))
	thresholds := []float64{0.15, 0.75}
	type result struct {
		got  AttendResponse
		want *elsa.Output
		code int
	}
	results := make([]result, len(thresholds))
	var wg sync.WaitGroup
	for i, tv := range thresholds {
		q, k, v := genOp(rng, 3, 24)
		want, err := eng.Attend(q, k, v, elsa.Threshold{P: 1, T: tv})
		if err != nil {
			t.Fatal(err)
		}
		results[i].want = want
		tv := tv
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed, P: 1, T: &tv}
			resp, raw := postAttend(t, ts.Client(), ts.URL, req)
			results[i].code = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(raw, &results[i].got); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	waitQueued(t, srv.disp, len(thresholds))
	openAll(gates)
	wg.Wait()

	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("op %d: status %d", i, r.code)
		}
		if r.got.BatchSize != len(thresholds) {
			t.Errorf("op %d: batch size %d, want %d (mixed thresholds must share one dispatch)",
				i, r.got.BatchSize, len(thresholds))
		}
		if r.got.Threshold.T != thresholds[i] {
			t.Errorf("op %d: threshold %g echoed, want %g", i, r.got.Threshold.T, thresholds[i])
		}
		if r.got.CandidateFraction != r.want.CandidateFraction {
			t.Errorf("op %d: candidate fraction %g, want %g (per-op threshold not applied)",
				i, r.got.CandidateFraction, r.want.CandidateFraction)
		}
		for qi := range r.got.Context {
			for j := range r.got.Context[qi] {
				if r.got.Context[qi][j] != r.want.Context[qi][j] {
					t.Fatalf("op %d: output differs from unbatched Attend at %d,%d", i, qi, j)
				}
			}
		}
	}
}

// TestStatePersistenceAcrossRestart calibrates a threshold under one
// server, restarts with the same state dir, and checks the second server
// serves its first calibrated request from disk without recalibrating.
func TestStatePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(37))
	q, k, v := genOp(rng, 4, 32)
	req := AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed, P: 1}

	serveOnce := func() (AttendResponse, *Metrics) {
		srv := New(Config{StateDir: dir})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, raw := postAttend(t, ts.Client(), ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var got AttendResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		return got, srv.Metrics()
	}

	first, m1 := serveOnce()
	if m1.calibrations.value() != 1 || m1.thresholdLoads.value() != 0 {
		t.Fatalf("first server: %d calibrations / %d loads, want 1/0",
			m1.calibrations.value(), m1.thresholdLoads.value())
	}
	second, m2 := serveOnce()
	if m2.calibrations.value() != 0 {
		t.Errorf("restarted server recalibrated %d time(s); the state dir should have served it",
			m2.calibrations.value())
	}
	if m2.thresholdLoads.value() != 1 {
		t.Errorf("restarted server loaded %d thresholds from disk, want 1", m2.thresholdLoads.value())
	}
	if first.Threshold != second.Threshold {
		t.Errorf("threshold changed across restart: %+v vs %+v", first.Threshold, second.Threshold)
	}
}
