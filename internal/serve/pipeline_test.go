package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
)

// laneGate holds a lane busy: each batch that reaches it reports its
// size on entered, then waits until the gate opens. A lane holds one
// batch at a time, so entered needs room for one report only.
type laneGate struct {
	entered chan int
	release chan struct{}
	once    sync.Once
}

func newLaneGate() *laneGate {
	return &laneGate{entered: make(chan int, 1), release: make(chan struct{})}
}

// pass holds a batch of n ops until the gate opens; a nil gate passes at
// once.
func (g *laneGate) pass(n int) {
	if g == nil {
		return
	}
	select {
	case <-g.release:
		return
	default:
	}
	g.entered <- n
	<-g.release
}

// open lets the held batch and every later one through. Idempotent.
func (g *laneGate) open() { g.once.Do(func() { close(g.release) }) }

// held waits for a batch to reach the gate and returns its size.
func (g *laneGate) held(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(30 * time.Second):
		t.Fatal("no batch reached the held lane")
		return 0
	}
}

// gatedBackend wraps a real lane backend in a laneGate, so a test can
// hold a real-engine lane busy and still check the bits it computes.
type gatedBackend struct {
	shardBackend
	gate *laneGate
}

func (b gatedBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	b.gate.pass(len(jobs))
	return b.shardBackend.attendBatch(jobs)
}

func (b gatedBackend) decodeBatch(jobs []*job) []error {
	b.gate.pass(len(jobs))
	return b.shardBackend.decodeBatch(jobs)
}

// gateLanes wraps every lane of set in a gatedBackend and returns the
// gates. It swaps the backends under the dispatcher lock, before any op
// reaches the set, so every later read of a lane's backend sees the
// wrapper. Open the gates before the server closes: Close waits for the
// held batches.
func gateLanes(d *dispatcher, set *replicaSet) []*laneGate {
	d.mu.Lock()
	defer d.mu.Unlock()
	var gates []*laneGate
	for _, sh := range set.shards() {
		g := newLaneGate()
		sh.backend = gatedBackend{shardBackend: sh.backend, gate: g}
		gates = append(gates, g)
	}
	return gates
}

// openAll opens every gate.
func openAll(gates []*laneGate) {
	for _, g := range gates {
		g.open()
	}
}

// waitFor polls cond until it holds, failing the test after 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued waits until exactly n ops wait in d's class queues.
func waitQueued(t *testing.T, d *dispatcher, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d queued ops", n), func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.queued == n
	})
}

// busyLanes counts the lanes of set holding a batch.
func busyLanes(d *dispatcher, set *replicaSet) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, sh := range set.shards() {
		if sh.busy {
			n++
		}
	}
	return n
}

// occupy holds every gated lane of set busy with one real blocker op,
// handed out one at a time so no two share a batch, and returns the
// blockers' outcomes, delivered once the gates open.
func occupy(t *testing.T, d *dispatcher, set *replicaSet, gates []*laneGate) <-chan error {
	t.Helper()
	errs := make(chan error, len(gates))
	rng := rand.New(rand.NewSource(1))
	for i := range gates {
		q, k, v := genOp(rng, 1, 2)
		go func() {
			_, _, _, err := d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
			errs <- err
		}()
		waitFor(t, "a blocker to occupy a lane", func() bool { return busyLanes(d, set) == i+1 })
	}
	for _, g := range gates {
		if n := g.held(t); n != 1 {
			t.Fatalf("blocker batch of %d, want 1", n)
		}
	}
	return errs
}

// fakeBackend is a scripted shard lane: available unless down is set,
// holding each batch at hold (nil = never), then failing every op with
// err (nil = succeed with an empty output).
type fakeBackend struct {
	down atomic.Bool
	hold *laneGate
	err  error
}

func (b *fakeBackend) name() string    { return "fake" }
func (b *fakeBackend) available() bool { return !b.down.Load() }

func (b *fakeBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	b.hold.pass(len(jobs))
	outs := make([]*elsa.Output, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		if errs[i] = b.err; b.err == nil {
			outs[i] = &elsa.Output{}
		}
	}
	return outs, errs
}

func (b *fakeBackend) decodeBatch(jobs []*job) []error {
	_, errs := b.attendBatch(jobs)
	return errs
}

// newFakeSet wires one quantized replica set with one lane per backend,
// the first local of them local and the rest remote-style (so they never
// take decode), with their shard loops running on d. Teardown opens every
// hold gate, then closes d.
func newFakeSet(t *testing.T, d *dispatcher, local int, backends ...*fakeBackend) *replicaSet {
	t.Helper()
	set := &replicaSet{opts: elsa.Options{Quantized: true}, ready: make(chan struct{}), local: local}
	close(set.ready)
	shards := make([]*shard, len(backends))
	for i, b := range backends {
		shards[i] = newShard(i, set, b, d.metrics)
	}
	set.shardsv.Store(shards)
	for _, sh := range shards {
		d.startShard(sh)
	}
	t.Cleanup(func() {
		for _, b := range backends {
			if b.hold != nil {
				b.hold.open()
			}
		}
		d.close()
		for _, sh := range shards {
			close(sh.queue)
		}
		d.waitShards()
	})
	return set
}

// admit pushes one op of the given kind and class through the gate and
// kicks its set, the way submit and the session registry drive the
// dispatcher, and returns the op's result channel.
func admit(d *dispatcher, set *replicaSet, decode bool, class Class, deadline time.Time) (<-chan jobResult, error) {
	j := &job{ctx: context.Background(), class: class, result: make(chan jobResult, 1)}
	if decode {
		dec := &decodeJob{}
		dec.init()
		dec.j.ctx, dec.j.class = j.ctx, class
		j = &dec.j
	} else {
		thr := elsa.Exact()
		j.op.Thr = &thr
	}
	if err := d.enqueue(set, j, deadline); err != nil {
		return nil, err
	}
	d.kick(set, decode)
	return j.result, nil
}

// runKind pushes one interactive op of the given kind through the
// dispatcher and returns its outcome.
func runKind(d *dispatcher, set *replicaSet, decode bool, deadline time.Time) error {
	res, err := admit(d, set, decode, ClassInteractive, deadline)
	if err != nil {
		return err
	}
	return (<-res).err
}

// holdLane occupies b's lane with one blocker op held at a fresh gate.
func holdLane(t *testing.T, d *dispatcher, set *replicaSet, b *fakeBackend) {
	t.Helper()
	b.hold = newLaneGate()
	occupy(t, d, set, []*laneGate{b.hold})
}

// TestPipelineRefusals runs both job kinds through every refusal and
// reroute branch of the shared pipeline: the admission gate's four
// refusals and a retryable failure with no sibling lane. The queue-full
// and deadline cases pin the wait estimate: one service time while the
// lane is idle, and (⌊ahead/(MaxBatch×lanes)⌋ + 2) service times while a
// held blocker keeps it busy.
func TestPipelineRefusals(t *testing.T) {
	const (
		maxBatch = 4
		maxQueue = 8
		svc      = 5 * time.Millisecond
		probe    = 3 * time.Second
		retries  = 2
	)
	setSvc := func(d *dispatcher, svc time.Duration) {
		d.mu.Lock()
		d.svcEWMA = svc.Seconds()
		d.mu.Unlock()
	}
	for _, tc := range []struct {
		name       string
		setup      func(t *testing.T, d *dispatcher, set *replicaSet, b *fakeBackend, decode bool)
		deadline   time.Duration // 0 = none
		want       error
		retryAfter time.Duration // 0 = no Retry-After
		reroutes   int64
	}{
		{
			name:  "closed",
			setup: func(_ *testing.T, d *dispatcher, _ *replicaSet, _ *fakeBackend, _ bool) { d.close() },
			want:  ErrClosed,
		},
		{
			name:       "no lane available",
			setup:      func(_ *testing.T, _ *dispatcher, _ *replicaSet, b *fakeBackend, _ bool) { b.down.Store(true) },
			want:       ErrNoWorkers,
			retryAfter: probe,
		},
		{
			// Other sets' ops fill the shared queue; this set's lane is idle.
			name: "class queue share full",
			setup: func(t *testing.T, d *dispatcher, _ *replicaSet, _ *fakeBackend, _ bool) {
				setQueued := func(n int) {
					d.mu.Lock()
					d.queued = n
					d.mu.Unlock()
				}
				setQueued(d.maxQueue)
				t.Cleanup(func() { setQueued(0) }) // before close waits the queue out
				setSvc(d, svc)
			},
			want:       ErrQueueFull,
			retryAfter: svc,
		},
		{
			// The blocker runs, then maxQueue ops of the kind queue behind
			// it: two whole harvests ahead, plus the blocker and the op's
			// own batch.
			name: "class queue share full behind a busy lane",
			setup: func(t *testing.T, d *dispatcher, set *replicaSet, b *fakeBackend, decode bool) {
				holdLane(t, d, set, b)
				for i := 0; i < maxQueue; i++ {
					if _, err := admit(d, set, decode, ClassInteractive, time.Time{}); err != nil {
						t.Fatal(err)
					}
				}
				setSvc(d, svc)
			},
			want:       ErrQueueFull,
			retryAfter: (maxQueue/maxBatch + 2) * svc,
		},
		{
			name:       "deadline unmeetable",
			setup:      func(_ *testing.T, d *dispatcher, _ *replicaSet, _ *fakeBackend, _ bool) { setSvc(d, time.Hour) },
			deadline:   time.Second,
			want:       ErrDeadline,
			retryAfter: time.Hour,
		},
		{
			// One service time fits the deadline; the busy lane's second
			// does not.
			name: "deadline unmeetable behind a busy lane",
			setup: func(t *testing.T, d *dispatcher, set *replicaSet, b *fakeBackend, _ bool) {
				holdLane(t, d, set, b)
				setSvc(d, time.Second)
			},
			deadline:   1500 * time.Millisecond,
			want:       ErrDeadline,
			retryAfter: 2 * time.Second,
		},
		{
			name: "retryable failure without a sibling",
			setup: func(_ *testing.T, _ *dispatcher, _ *replicaSet, b *fakeBackend, _ bool) {
				b.err = &workerError{addr: "w", err: io.EOF, retryable: true}
			},
			want:       ErrNoWorkers,
			retryAfter: probe,
			reroutes:   1,
		},
	} {
		for _, decode := range []bool{false, true} {
			kind := "oneshot"
			if decode {
				kind = "decode"
			}
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				m := NewMetrics()
				d := newDispatcher(maxBatch, maxQueue, 0, retries, probe, classWeights{}, m)
				b := &fakeBackend{}
				set := newFakeSet(t, d, 1, b)
				tc.setup(t, d, set, b, decode)
				var deadline time.Time
				if tc.deadline > 0 {
					deadline = time.Now().Add(tc.deadline)
				}
				err := runKind(d, set, decode, deadline)
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
				if got := retryAfterOf(err); got != tc.retryAfter {
					t.Errorf("Retry-After %v, want %v", got, tc.retryAfter)
				}
				if n := m.reroutes.value(); n != tc.reroutes {
					t.Errorf("reroutes %d, want %d", n, tc.reroutes)
				}
			})
		}
	}
}

// TestIdleLaneTakesLoneOp: with one of two lanes held busy, a lone op of
// either kind dispatches at once to the idle lane and completes there
// while the held lane still works — the rule is per lane, not one batch
// in flight per set.
func TestIdleLaneTakesLoneOp(t *testing.T) {
	for _, decode := range []bool{false, true} {
		d := newDispatcher(4, 8, 0, 2, time.Second, classWeights{}, NewMetrics())
		held, idle := &fakeBackend{}, &fakeBackend{}
		set := newFakeSet(t, d, 2, held, idle)
		// Only the held lane is up while the blocker dispatches.
		idle.down.Store(true)
		holdLane(t, d, set, held)
		idle.down.Store(false)

		res, err := admit(d, set, decode, ClassInteractive, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-res:
			if r.err != nil || r.shard != 1 || r.batchSize != 1 {
				t.Errorf("decode=%v: lone op answered %+v, want lane 1, batch 1", decode, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("decode=%v: lone op waited behind the held lane", decode)
		}
		held.hold.open()
	}
}

// TestHeldLanesHarvestWeightedBatch: while both lanes are held, ops of
// mixed classes queue; when one lane frees it harvests them as one
// weighted batch and the next batch holds what the weight cap deferred.
// elsa_serve_preempted_total counts only ops a cap held back, never ops
// left behind because the batch was full.
func TestHeldLanesHarvestWeightedBatch(t *testing.T) {
	I, B := ClassInteractive, ClassBackground
	for _, tc := range []struct {
		name      string
		classes   []Class
		sizes     []int // each op's batch size, in admission order
		preempted int64 // background
	}{
		// MaxBatch 4, weights 16:4:1: background's cap is 1 beside
		// interactive, so two background ops are held back by weight.
		{"weight cap", []Class{I, I, B, B, B}, []int{3, 3, 3, 2, 2}, 2},
		// The batch fills with interactive: background is left by
		// fullness, not by weight, and is not counted.
		{"full batch", []Class{I, I, I, I, B}, []int{4, 4, 4, 4, 1}, 0},
	} {
		for _, decode := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/decode=%v", tc.name, decode), func(t *testing.T) {
				m := NewMetrics()
				d := newDispatcher(4, 64, 0, 2, time.Second, classWeights{}, m)
				b0, b1 := &fakeBackend{hold: newLaneGate()}, &fakeBackend{hold: newLaneGate()}
				set := newFakeSet(t, d, 2, b0, b1)
				occupy(t, d, set, []*laneGate{b0.hold, b1.hold})
				results := make([]<-chan jobResult, len(tc.classes))
				for i, c := range tc.classes {
					res, err := admit(d, set, decode, c, time.Time{})
					if err != nil {
						t.Fatal(err)
					}
					results[i] = res
				}
				b0.hold.open()
				for i, res := range results {
					r := <-res
					if r.err != nil || r.batchSize != tc.sizes[i] {
						t.Errorf("op %d (%v): %+v, want batch %d", i, tc.classes[i], r, tc.sizes[i])
					}
					if r.shard != 0 {
						t.Errorf("op %d ran on lane %d while lane 1 was held", i, r.shard)
					}
				}
				if got := m.preempted.with(B.String()).value(); got != tc.preempted {
					t.Errorf("preempted{background} = %d, want %d", got, tc.preempted)
				}
				if got := m.preempted.with(I.String()).value(); got != 0 {
					t.Errorf("preempted{interactive} = %d, want 0", got)
				}
			})
		}
	}
}

// TestNoStrandedOps races many submitters of both kinds — lone ops and
// decode waves that enqueue several steps before one kick — against lane
// completions, on a set where only the local lane may take decode. Every
// op must be answered within a bound: an op left queued with no kick
// coming would hang here. Run under -race.
func TestNoStrandedOps(t *testing.T) {
	d := newDispatcher(4, 4096, 0, 2, time.Second, classWeights{}, NewMetrics())
	set := newFakeSet(t, d, 1, &fakeBackend{}, &fakeBackend{})
	const submitters, rounds = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			class := Class(s % int(NumClasses))
			for r := 0; r < rounds; r++ {
				decode := (s+r)%2 == 1
				wave := 1
				if decode {
					wave = 1 + r%3
				}
				results := make([]<-chan jobResult, 0, wave)
				for i := 0; i < wave; i++ {
					j := &job{ctx: context.Background(), class: class, result: make(chan jobResult, 1)}
					if decode {
						dec := &decodeJob{}
						dec.init()
						dec.j.ctx, dec.j.class = j.ctx, class
						j = &dec.j
					}
					if err := d.enqueue(set, j, time.Time{}); err != nil {
						t.Error(err)
						return
					}
					results = append(results, j.result)
				}
				d.kick(set, decode)
				for _, res := range results {
					select {
					case r := <-res:
						if r.err != nil {
							t.Error(r.err)
						}
					case <-time.After(10 * time.Second):
						t.Errorf("submitter %d round %d: op stranded (decode=%v)", s, r, decode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every lane to go idle with nothing queued", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.queued == 0 && d.inflight == 0
	})
}

// exclusiveBackend wraps a lane backend and records whether the lane
// ever ran two batches at once.
type exclusiveBackend struct {
	shardBackend
	running atomic.Int32
	overlap atomic.Bool
}

func (b *exclusiveBackend) enter() func() {
	if b.running.Add(1) > 1 {
		b.overlap.Store(true)
	}
	return func() { b.running.Add(-1) }
}

func (b *exclusiveBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	defer b.enter()()
	return b.shardBackend.attendBatch(jobs)
}

func (b *exclusiveBackend) decodeBatch(jobs []*job) []error {
	defer b.enter()()
	return b.shardBackend.decodeBatch(jobs)
}

// TestRerouteNeverSharesALane: in a float-mode set of one real local lane
// and one remote-style lane that fails every op with a retryable error,
// sessions step concurrently beside one-shot ops. Decode takes the remote
// lane whenever the local one is busy, so nearly every remote batch
// reroutes to a busy local lane. No lane may ever run two batches at
// once — the local backend's decode staging buffers are shared by its
// batches — and every op must succeed on the local lane, each session
// step bit-identical to the same step run alone. Run under -race.
func TestRerouteNeverSharesALane(t *testing.T) {
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	eng, err := elsa.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(4, 4096, 1, 2, time.Second, classWeights{}, NewMetrics())
	set := &replicaSet{opts: opts, ready: make(chan struct{}), local: 1}
	close(set.ready)
	local := &exclusiveBackend{shardBackend: &localBackend{eng: eng, workers: 1}}
	remote := &exclusiveBackend{shardBackend: &fakeBackend{err: &workerError{addr: "w", err: io.EOF, retryable: true}}}
	shards := []*shard{newShard(0, set, local, d.metrics), newShard(1, set, remote, d.metrics)}
	set.shardsv.Store(shards)
	for _, sh := range shards {
		d.startShard(sh)
	}
	defer func() {
		d.close()
		for _, sh := range shards {
			close(sh.queue)
		}
		d.waitShards()
	}()

	rng := rand.New(rand.NewSource(1))
	const sessions, oneshots, rounds = 12, 4, 30
	decs := make([]*decodeJob, sessions)
	want := make([][]float32, sessions)
	alone := &localBackend{eng: eng, workers: 1}
	for i := range decs {
		st := eng.NewStream(64)
		for k := 0; k < 8; k++ {
			st.Append(genVec(rng), genVec(rng))
		}
		dec := &decodeJob{stream: st, q: genVec(rng), thr: elsa.Exact()}
		dec.init()
		dec.j.ctx = context.Background()
		if errs := alone.decodeBatch([]*job{&dec.j}); errs[0] != nil {
			t.Fatal(errs[0])
		}
		want[i] = append([]float32(nil), dec.out...)
		decs[i] = dec
	}
	ops := make([]elsa.BatchOp, oneshots)
	for i := range ops {
		q, k, v := genOp(rng, 1, 8)
		ops[i] = elsa.BatchOp{Q: q, K: k, V: v}
	}

	var wg sync.WaitGroup
	for i, dec := range decs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				dec.j.attempts = 0
				if err := d.enqueue(set, &dec.j, time.Time{}); err != nil {
					t.Error(err)
					return
				}
				d.kick(set, true)
				res := <-dec.j.result
				if res.err != nil || res.shard != 0 {
					t.Errorf("session %d round %d: %+v, want success on lane 0", i, r, res)
					return
				}
				if !slices.Equal(dec.out, want[i]) {
					t.Errorf("session %d round %d: context differs from the step run alone", i, r)
					return
				}
			}
		}()
	}
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				_, _, shard, err := d.submit(context.Background(), set, op, elsa.Exact(), ClassInteractive, time.Time{})
				if err != nil || shard != 0 {
					t.Errorf("one-shot round %d: shard %d, err %v; want success on lane 0", r, shard, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if local.overlap.Load() || remote.overlap.Load() {
		t.Error("a lane ran two batches at once")
	}
	if d.metrics.reroutes.value() == 0 {
		t.Error("no op rerouted; the test did not exercise the reroute path")
	}
}

// TestTightDeadlineServedOnIdleLane: an op reaching an idle lane
// dispatches at once, so admission must not charge it any wait. On an
// idle server with the default config, a one-shot attend, a session
// query and a one-entry step wave with deadline_ms 1 are all answered.
func TestTightDeadlineServedOnIdleLane(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	var created SessionCreateResponse
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions", SessionCreateRequest{HeadDim: testDim, Seed: testSeed}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	rng := rand.New(rand.NewSource(testSeed))
	app := SessionAppendRequest{}
	for i := 0; i < 8; i++ {
		app.Keys = append(app.Keys, genVec(rng))
		app.Values = append(app.Values, genVec(rng))
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/append", app, nil); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}

	post := func(path string, op any) []byte {
		t.Helper()
		raw, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(Envelope{DeadlineMS: 1, Op: raw})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with deadline_ms 1: status %d (%s)", path, resp.StatusCode, reply)
		}
		return reply
	}
	q := genVec(rng)
	post("/v1/attend", AttendRequest{Q: [][]float32{q}, K: app.Keys, V: app.Values, HeadDim: testDim, Seed: testSeed})
	post("/v1/sessions/"+created.ID+"/query", SessionQueryRequest{Q: q})
	// A step wave answers 200 whatever its entries did; the entry carries
	// the shed.
	var wave SessionStepResponse
	if err := json.Unmarshal(post("/v1/sessions/step", SessionStepRequest{Queries: []SessionStepQuery{{ID: created.ID, Q: q}}}), &wave); err != nil {
		t.Fatal(err)
	}
	if len(wave.Results) != 1 || wave.Results[0].Error != "" {
		t.Errorf("one-entry step wave with deadline_ms 1: %+v", wave.Results)
	}
}

// TestStepWavePreemptsBackground is the decode side of
// TestWeightedDequeueDefersBackground: one step wave carrying one
// interactive and three background sessions under MaxBatch 4 harvests
// the interactive step with background's weight share (one) beside it.
// The cap holds back the other two, counted preempted, and they ride
// the next harvest.
func TestStepWavePreemptsBackground(t *testing.T) {
	srv := New(Config{MaxBatch: 4})
	defer srv.Close()
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(testSeed))
	classes := []Class{ClassInteractive, ClassBackground, ClassBackground, ClassBackground}
	entries := make([]stepEntry, len(classes))
	for i, class := range classes {
		sess, err := srv.sessions.create(ctx, set, opts, 0, nil, "", 8, requestMeta{class: class})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.sessions.append(ctx, sess.id, [][]float32{genVec(rng), genVec(rng)}, [][]float32{genVec(rng), genVec(rng)}); err != nil {
			t.Fatal(err)
		}
		entries[i] = stepEntry{ID: sess.id, Q: genVec(rng)}
	}
	srv.sessions.step(ctx, entries, time.Time{})
	for i, e := range entries {
		if e.Err != nil {
			t.Fatalf("entry %d (%v): %v", i, classes[i], e.Err)
		}
		if e.BatchSize != 2 {
			t.Errorf("entry %d (%v) rode a batch of %d, want 2", i, classes[i], e.BatchSize)
		}
	}
	if got := srv.metrics.preempted.with(ClassBackground.String()).value(); got != 2 {
		t.Errorf("preempted{background} = %d, want 2", got)
	}
	if got := srv.metrics.preempted.with(ClassInteractive.String()).value(); got != 0 {
		t.Errorf("preempted{interactive} = %d, want 0", got)
	}
}
