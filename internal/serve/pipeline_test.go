package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
)

// fakeBackend is a scripted shard lane: available unless down is set,
// failing every op with err (nil = succeed with an empty output).
type fakeBackend struct {
	down atomic.Bool
	err  error
}

func (b *fakeBackend) name() string    { return "fake" }
func (b *fakeBackend) available() bool { return !b.down.Load() }

func (b *fakeBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
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

// newFakeSet wires one replica set whose only lane is backend, with its
// shard loop and decode loop running on d, torn down with the test.
func newFakeSet(t *testing.T, d *dispatcher, backend shardBackend) *replicaSet {
	t.Helper()
	set := &replicaSet{ready: make(chan struct{}), local: 1}
	close(set.ready)
	sh := newShard(0, set, backend, d.maxQueue, d.metrics)
	set.shardsv.Store([]*shard{sh})
	d.startShard(sh)
	d.startDecodeLoop(set)
	t.Cleanup(func() {
		d.close()
		close(sh.queue)
		d.waitShards()
	})
	return set
}

// runKind pushes one op of the given kind through the dispatcher and
// returns its outcome: a one-shot op through submit, a decode step
// through enqueue, a wakeup and the unconditional result receive, the
// way the session registry drives it.
func runKind(d *dispatcher, set *replicaSet, decode bool, deadline time.Time) error {
	ctx := context.Background()
	if !decode {
		_, _, _, err := d.submit(ctx, set, elsa.BatchOp{}, elsa.Exact(), ClassInteractive, deadline)
		return err
	}
	var dec decodeJob
	dec.init()
	dec.j.ctx, dec.j.class = ctx, ClassInteractive
	if err := d.enqueue(set, &dec.j, deadline); err != nil {
		return err
	}
	set.dec.wakeup()
	return (<-dec.j.result).err
}

// TestPipelineRefusals runs both job kinds through every refusal and
// reroute branch of the shared pipeline: the admission gate's four
// refusals and a retryable failure with no sibling lane. The queue-full
// case pins the wait estimate itself: the batching window is charged to
// one-shot ops only.
func TestPipelineRefusals(t *testing.T) {
	const (
		window  = 50 * time.Millisecond
		svc     = 5 * time.Millisecond
		probe   = 3 * time.Second
		retries = 2
	)
	for _, tc := range []struct {
		name       string
		setup      func(d *dispatcher, b *fakeBackend)
		deadline   time.Duration // 0 = none
		want       error
		retryAfter func(decode bool) time.Duration // nil = no Retry-After
		reroutes   int64
	}{
		{
			name:  "closed",
			setup: func(d *dispatcher, _ *fakeBackend) { d.close() },
			want:  ErrClosed,
		},
		{
			name:       "no lane available",
			setup:      func(_ *dispatcher, b *fakeBackend) { b.down.Store(true) },
			want:       ErrNoWorkers,
			retryAfter: func(bool) time.Duration { return probe },
		},
		{
			name: "class queue share full",
			setup: func(d *dispatcher, _ *fakeBackend) {
				d.mu.Lock()
				d.queued, d.svcEWMA = d.maxQueue, svc.Seconds()
				d.mu.Unlock()
			},
			want: ErrQueueFull,
			retryAfter: func(decode bool) time.Duration {
				if decode {
					return svc
				}
				return window + svc
			},
		},
		{
			name: "deadline unmeetable",
			setup: func(d *dispatcher, _ *fakeBackend) {
				d.mu.Lock()
				d.svcEWMA = time.Hour.Seconds()
				d.mu.Unlock()
			},
			deadline: time.Second,
			want:     ErrDeadline,
			retryAfter: func(decode bool) time.Duration {
				if decode {
					return time.Hour
				}
				return window + time.Hour
			},
		},
		{
			name:       "retryable failure without a sibling",
			setup:      func(_ *dispatcher, b *fakeBackend) { b.err = &workerError{addr: "w", err: io.EOF, retryable: true} },
			want:       ErrNoWorkers,
			retryAfter: func(bool) time.Duration { return probe },
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
				d := newDispatcher(window, 4, 8, 0, retries, probe, classWeights{}, m)
				b := &fakeBackend{}
				set := newFakeSet(t, d, b)
				tc.setup(d, b)
				var deadline time.Time
				if tc.deadline > 0 {
					deadline = time.Now().Add(tc.deadline)
				}
				err := runKind(d, set, decode, deadline)
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
				got := retryAfterOf(err)
				switch {
				case tc.retryAfter == nil && got != 0:
					t.Errorf("Retry-After %v, want none", got)
				case tc.retryAfter != nil:
					// The window term is a countdown from the moment the
					// op's pending batch opened; allow the time since.
					want := tc.retryAfter(decode)
					if got > want || got < want-window/2 {
						t.Errorf("Retry-After %v, want %v", got, want)
					}
				}
				if n := m.reroutes.value(); n != tc.reroutes {
					t.Errorf("reroutes %d, want %d", n, tc.reroutes)
				}
			})
		}
	}
}

// TestDecodeDeadlineSkipsBatchWindow: a decode step never waits for the
// one-shot batching window, so its admission must not charge it. On an
// idle server with the default config, a session query and a one-entry
// step wave with deadline_ms 1 are both answered.
func TestDecodeDeadlineSkipsBatchWindow(t *testing.T) {
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
// the loop's next batch.
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
