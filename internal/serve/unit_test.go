package serve

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"elsa"
)

// newTestStack builds a pool + dispatcher pair and tears the shard loops
// down with the test.
func newTestStack(t *testing.T, replicas, maxEntries int, maxBatch, maxQueue int) (*enginePool, *dispatcher, *Metrics) {
	t.Helper()
	m := NewMetrics()
	d := newDispatcher(maxBatch, maxQueue, 0, 2, time.Second, classWeights{}, m)
	p := newEnginePool(replicas, maxEntries, d, newWorkerSet(nil, time.Second, 1, 3, m), m)
	t.Cleanup(func() {
		d.close()
		p.closeShards()
		d.waitShards()
	})
	return p, d, m
}

func TestNormalizeOptions(t *testing.T) {
	got := normalizeOptions(elsa.Options{}, 16)
	if got.HeadDim != 16 || got.HashBits != 16 {
		t.Errorf("head dim should default to the query width: %+v", got)
	}
	if got.Hardware != elsa.DefaultHardware() {
		t.Error("zero hardware should normalize to the default")
	}
	got = normalizeOptions(elsa.Options{}, 0)
	if got.HeadDim != 64 {
		t.Errorf("with no query width the paper default 64 applies, got %d", got.HeadDim)
	}
	got = normalizeOptions(elsa.Options{HeadDim: 32, HashBits: 8}, 16)
	if got.HeadDim != 32 || got.HashBits != 8 {
		t.Errorf("explicit fields must survive normalization: %+v", got)
	}
}

func TestEnginePoolReusesAndRetriesFailures(t *testing.T) {
	p, _, _ := newTestStack(t, 2, 8, 64, 64)
	a, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: 1}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.engines) != 2 || len(a.shards()) != 2 {
		t.Fatalf("replica set has %d engines / %d shards, want 2/2", len(a.engines), len(a.shards()))
	}
	b, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: 1}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same options must return the same pooled replica set")
	}
	c, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: 2}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different seed must build a different replica set")
	}
	if p.size() != 2 {
		t.Errorf("pool size %d, want 2", p.size())
	}
	// A bad config fails but must NOT occupy a pool slot: the next get for
	// the same key retries construction instead of serving a cached error.
	if _, err := p.get(elsa.Options{HeadDim: -1}); err == nil {
		t.Fatal("negative head dim should fail")
	}
	if p.size() != 2 {
		t.Errorf("pool size %d after failed build, want 2 (failure must free its slot)", p.size())
	}
	if _, err := p.get(elsa.Options{HeadDim: -1}); err == nil {
		t.Fatal("retried bad config should fail again")
	}
}

func TestEnginePoolLRUEviction(t *testing.T) {
	p, _, m := newTestStack(t, 1, 2, 64, 64)
	optsFor := func(seed int64) elsa.Options {
		return normalizeOptions(elsa.Options{HeadDim: testDim, Seed: seed}, testDim)
	}
	a, err := p.get(optsFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(optsFor(2)); err != nil {
		t.Fatal(err)
	}
	// Touch seed 1 so seed 2 is now least recently used.
	if _, err := p.get(optsFor(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(optsFor(3)); err != nil {
		t.Fatal(err)
	}
	if p.size() != 2 {
		t.Fatalf("pool size %d, want 2 (bounded)", p.size())
	}
	if m.engineEvictions.value() != 1 {
		t.Errorf("engine evictions %d, want 1", m.engineEvictions.value())
	}
	// Seed 1 must have survived (it was touched); a re-get returns the same
	// set without rebuilding. Seed 2 was evicted and rebuilds fresh.
	a2, err := p.get(optsFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Error("recently-used set was evicted instead of the LRU one")
	}
	if _, err := p.get(optsFor(2)); err != nil {
		t.Fatal(err)
	}
	if m.engineEvictions.value() != 2 {
		t.Errorf("engine evictions %d after refetching evicted key, want 2", m.engineEvictions.value())
	}
}

func TestDispatcherCanceledContext(t *testing.T) {
	p, d, _ := newTestStack(t, 1, 8, 64, 8)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	q, k, v := genOp(rng, 2, 4)
	_, _, _, err = d.submit(ctx, set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDispatcherRefusesWhenClosed(t *testing.T) {
	p, d, _ := newTestStack(t, 1, 8, 64, 8)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	d.close()
	rng := rand.New(rand.NewSource(4))
	q, k, v := genOp(rng, 2, 4)
	_, _, _, err = d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	d.close() // idempotent
}

func TestMaxBatchDispatchesEarly(t *testing.T) {
	// A held blocker keeps the only lane busy while five ops queue; once
	// it frees, the lane harvests at most MaxBatch (2) at a time.
	p, d, m := newTestStack(t, 1, 8, 2, 16)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(d, set)
	defer openAll(gates)
	blocker := occupy(t, d, set, gates)
	rng := rand.New(rand.NewSource(5))
	const queued = 5
	sizes := make(chan int, queued)
	for i := 0; i < queued; i++ {
		q, k, v := genOp(rng, 2, 4)
		go func() {
			_, size, _, err := d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
			if err != nil {
				t.Error(err)
			}
			sizes <- size
		}()
	}
	waitQueued(t, d, queued)
	openAll(gates)
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for i := 0; i < queued; i++ {
		got[<-sizes]++
	}
	// Two full batches, then the one op left.
	if got[2] != 4 || got[1] != 1 {
		t.Errorf("per-op batch sizes %v, want four ops in batches of 2 and one alone", got)
	}
	if n := m.batches.value(); n != 4 {
		t.Errorf("%d batches dispatched, want 4 (blocker, 2, 2, 1)", n)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// TestMetricsHistogramRendering drives every metric family once with
// fixed values — the clock is injected so shed rates are deterministic —
// and pins the /v1/metrics exposition byte for byte to
// testdata/metrics.golden (rerun with -update to accept a change), then
// checks the text is well formed.
func TestMetricsHistogramRendering(t *testing.T) {
	m := NewMetrics()
	now := time.Unix(100, 0)
	m.clock = func() time.Time { return now }
	m.requests.with("200").add(2)
	m.requests.with("429").add(1)
	for _, sec := range []float64{0.003, 0.2, 0.0001} {
		m.latency.observe(sec)
	}
	m.rejected.with("quota").add(1)
	for _, size := range []int64{1, 3, 300} { // 300 is beyond the last bound → +Inf bucket
		m.batches.add(1)
		m.batchOps.add(size)
		m.batchSize.observe(float64(size))
	}
	m.admission.with("admitted").add(1)
	m.admission.with("shed_quota").add(1)
	m.preempted.with("background").add(2)
	m.classLatency.with(ClassInteractive.String()).observe(0.003)
	m.classLatency.with(ClassBackground.String()).observe(0.2)
	m.quotaClients.set(4)
	m.candFracSum.addFloat(0.25)
	m.candFracSum.addFloat(0.5)
	m.candFracCount.add(2)
	sh0, sh1 := m.shard(0), m.shard(1)
	sh0.batches.add(1)
	sh0.ops.add(1)
	sh1.batches.add(1)
	sh1.ops.add(3)
	m.queueDepth.set(5)
	m.queuedBy[ClassInteractive].set(3)
	m.queuedBy[ClassBatch].set(2)
	m.ShedRates() // seeds the shed-rate window at t=100s
	m.shedBy[ClassInteractive].add(4)
	m.shedBy[ClassBatch].add(1)
	now = now.Add(2 * time.Second) // the scrape closes a 2s window
	m.engines.set(2)
	m.engineEvictions.add(1)
	m.sessions.set(1)
	m.sessionsCreated.add(2)
	m.sessionEvictions.with("ttl").add(1)
	m.sessionTokens.add(16)
	m.sessionQueries.add(3)
	m.sessionsSpilled.add(1)
	m.sessionsRehydrated.add(1)
	m.sessionsMigrated.add(1)
	m.sessionsRecovered.add(1)
	m.mirrorTokens.add(8)
	m.mirrorNanos.Add(int64(1500 * time.Microsecond))
	m.mirrorFlushes.add(1)
	m.mirrorPending.add(3)
	m.decodeBatches.add(2)
	m.decodeOps.add(5)
	m.decodeBatchSize.observe(1)
	m.decodeBatchSize.observe(4)
	m.decodeCoalesced.add(4)
	m.calibrations.add(1)
	m.thresholdLoads.add(1)
	m.thresholdCorrupt.add(1)
	m.thresholdEvicts.add(1)
	w1, w2 := m.worker("10.0.0.1:8080"), m.worker("10.0.0.2:8080")
	w2.healthy.set(1)
	w1.healthy.set(0)
	w1.ejections.add(1)
	w2.readmissions.add(1)
	w2.remoteOps.add(6)
	m.reroutes.add(2)
	m.clusterMembers.replace(map[string]int64{"active": 2, "draining": 1})
	m.clusterVersion.set(7)
	m.clusterJoins.add(1)
	m.clusterHeartbeats.add(2)
	m.membersActivated.add(1)
	m.membersDraining.add(1)
	m.membersExpired.add(1)

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("/v1/metrics exposition differs from %s (rerun with -update to accept):\n%s", golden, text)
	}
	checkExposition(t, text)
	if m.MeanBatchSize() != 304.0/3 {
		t.Errorf("mean batch size %g", m.MeanBatchSize())
	}
}

// checkExposition asserts Prometheus text is well formed: every family
// opens with exactly one HELP line then one TYPE line, its samples follow
// contiguously, and no series key repeats.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	opened := map[string]bool{}
	keys := map[string]bool{}
	var family, typ string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if opened[fields[2]] {
				t.Errorf("family %s opens twice", fields[2])
			}
			opened[fields[2]] = true
			family, typ = fields[2], ""
		case strings.HasPrefix(line, "# TYPE "):
			if fields[2] != family || typ != "" {
				t.Errorf("%q does not follow its family's one HELP line", line)
			}
			typ = fields[3]
		default:
			key, _, _ := strings.Cut(line, " ")
			name, _, _ := strings.Cut(key, "{")
			if typ == "histogram" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					name = strings.TrimSuffix(name, suffix)
				}
			}
			if name != family || typ == "" {
				t.Errorf("sample %q outside its family's HELP/TYPE block", line)
			}
			if keys[key] {
				t.Errorf("series %s repeats", key)
			}
			keys[key] = true
		}
	}
}

// TestMetricsZeroAlloc pins the per-batch and per-query metric updates at
// zero allocations: handles resolved once (per shard, per class) must
// never format or look up a label string on the hot path.
func TestMetricsZeroAlloc(t *testing.T) {
	m := NewMetrics()
	sh := m.shard(3)
	allocs := testing.AllocsPerRun(100, func() {
		m.batches.add(1)
		m.batchOps.add(4)
		m.batchSize.observe(4)
		sh.batches.add(1)
		sh.ops.add(4)
		m.candFracSum.addFloat(0.25)
		m.candFracCount.add(1)
		m.shedBy[ClassBatch].add(1)
		m.decodeBatches.add(1)
		m.decodeOps.add(2)
		m.decodeBatchSize.observe(2)
		m.decodeCoalesced.add(2)
		m.sessionQueries.add(1)
	})
	if allocs != 0 {
		t.Errorf("metric updates allocate %.1f objects/op, want 0", allocs)
	}
}
