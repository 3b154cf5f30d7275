package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// The tests here pin the /v1/attend path's pooled buffers: a steady
// packed attend allocates a fraction of its body, and an op whose
// request gives up while the op is queued or running keeps its rows
// until no lane reads them. TestMain poisons every released buffer, so
// a row read after its release makes the engine refuse the op, and with
// it every op of the batch the stale one rides in.

const poolDim = 64

// poolOp is one exact (p = 0) packed attend op of 4 queries over keys
// keys, d = 64: at 160 keys and more its body and its K and V backings
// are large enough to pool.
type poolOp struct {
	q, k, v [][]float32
	body    []byte
}

func newPoolOp(tb testing.TB, rng *rand.Rand, keys int) poolOp {
	q, k, v := randMatrix(rng.Int63(), 4, poolDim), randMatrix(rng.Int63(), keys, poolDim), randMatrix(rng.Int63(), keys, poolDim)
	op, err := json.Marshal(struct {
		QP      []string `json:"qp"`
		KP      []string `json:"kp"`
		VP      []string `json:"vp"`
		HeadDim int      `json:"head_dim"`
	}{client.PackRows(q), client.PackRows(k), client.PackRows(v), poolDim})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(wire.Envelope[json.RawMessage]{Op: op})
	if err != nil {
		tb.Fatal(err)
	}
	return poolOp{q: q, k: k, v: v, body: body}
}

// post sends the op through srv.ServeHTTP under ctx and returns the
// status and, on 200, the context rows. Like check, it may run on any
// goroutine: it reports failures with Errorf.
func (o poolOp) post(tb testing.TB, srv *Server, ctx context.Context) (int, [][]float32) {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/attend", bytes.NewReader(o.body)).WithContext(ctx))
	if w.Code != http.StatusOK {
		return w.Code, nil
	}
	var reply wire.AttendResponse
	err := json.Unmarshal(w.Body.Bytes(), &reply)
	var out [][]float32
	if err == nil {
		out, err = client.UnpackRows(reply.ContextPacked)
	}
	if err != nil {
		tb.Errorf("attend reply %s: %v", w.Body, err)
	}
	return w.Code, out
}

// check posts the op and fails tb unless it answers the engine's own
// output bit for bit.
func (o poolOp) check(tb testing.TB, srv *Server, eng *elsa.Engine) {
	code, got := o.post(tb, srv, context.Background())
	if code != http.StatusOK || got == nil {
		tb.Errorf("attend answered %d", code)
		return
	}
	want, err := eng.Attend(o.q, o.k, o.v, elsa.Exact())
	if err != nil {
		tb.Error(err)
		return
	}
	for i := range want.Context {
		for j, x := range want.Context[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(x) {
				tb.Errorf("context[%d][%d] = %v, engine %v", i, j, got[i][j], x)
				return
			}
		}
	}
}

// checkMore posts n fresh ops, two at a time, and checks each bit for
// bit: they take the pooled buffers earlier ops released.
func checkMore(t *testing.T, srv *Server, eng *elsa.Engine, rng *rand.Rand, n int) {
	ops := make([]poolOp, n)
	for i := range ops {
		ops[i] = newPoolOp(t, rng, 160+16*i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				ops[i].check(t, srv, eng)
			}
		}()
	}
	wg.Wait()
}

// batchGate holds each batch its lane runs until a token on next lets
// it through, reporting its size on entered first; once opened, every
// batch passes.
type batchGate struct {
	shardBackend
	entered chan int
	next    chan struct{}
	open    chan struct{}
	once    sync.Once
}

// release opens the gate for good. Idempotent.
func (g *batchGate) release() { g.once.Do(func() { close(g.open) }) }

func (g *batchGate) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	select {
	case <-g.open:
	default:
		g.entered <- len(jobs)
		select {
		case <-g.next:
		case <-g.open:
		}
	}
	return g.shardBackend.attendBatch(jobs)
}

// heldServer is a one-lane server for poolDim ops whose lane runs behind
// a batchGate, and the lane's engine. Releasing the gate, then closing
// the server, is the caller's.
func heldServer(t *testing.T) (*Server, *elsa.Engine, *batchGate) {
	srv := New(Config{Replicas: 1})
	set, err := srv.pool.get(normalizeOptions(elsa.Options{HeadDim: poolDim}, poolDim))
	if err != nil {
		t.Fatal(err)
	}
	g := &batchGate{entered: make(chan int, 1), next: make(chan struct{}), open: make(chan struct{})}
	srv.disp.mu.Lock()
	sh := set.shards()[0]
	g.shardBackend = sh.backend
	sh.backend = g
	srv.disp.mu.Unlock()
	return srv, set.engine, g
}

// held waits for the next batch to reach the gate and returns its size.
func (g *batchGate) held(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(30 * time.Second):
		t.Fatal("no batch reached the held lane")
		return 0
	}
}

// postAsync posts op under ctx on its own goroutine and delivers the
// status.
func postAsync(t *testing.T, srv *Server, op poolOp, ctx context.Context) <-chan int {
	code := make(chan int, 1)
	go func() {
		c, _ := op.post(t, srv, ctx)
		code <- c
	}()
	return code
}

// TestAttendSteadyAllocs pins the pooled path's allocation: a steady
// packed /v1/attend of 4 queries over 320 keys (a 223 KB body, two
// 80 KB key and value backings) through Server.ServeHTTP allocates at
// most 64 KiB per op. Under -race sync.Pool drops buffers at random, so
// the bound is checked in plain builds only.
func TestAttendSteadyAllocs(t *testing.T) {
	srv := New(Config{Replicas: 1})
	defer srv.Close()
	body := packedAttendBody(t, randMatrix(1, 4, poolDim), randMatrix(2, 320, poolDim), randMatrix(3, 320, poolDim))
	run := func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/attend", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("attend answered %d: %s", w.Code, w.Body)
		}
	}
	run() // builds the engine and calibrates p = 1
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	perOp := res.AllocedBytesPerOp()
	t.Logf("%d B allocated per op for a %d B body", perOp, len(body))
	if raceEnabled {
		return
	}
	if perOp > 64<<10 {
		t.Errorf("packed 320-key attend allocates %d B per op, want at most %d", perOp, 64<<10)
	}
}

// TestCancelledAttendQueued: an op whose deadline expires while it waits
// behind a held batch answers 504 and leaves its buffers to the GC; the
// lane later harvests it beside two live ops, drops it unrun, and
// answers those, and fresh ops after them, bit for bit.
func TestCancelledAttendQueued(t *testing.T) {
	srv, eng, g := heldServer(t)
	defer srv.Close()
	defer g.release()
	rng := rand.New(rand.NewSource(1))

	blocker := postAsync(t, srv, newPoolOp(t, rng, 160), context.Background())
	if n := g.held(t); n != 1 {
		t.Fatalf("blocker batch of %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	stale := postAsync(t, srv, newPoolOp(t, rng, 192), ctx)
	if code := <-stale; code != http.StatusGatewayTimeout {
		t.Fatalf("queued op past its deadline answered %d, want 504", code)
	}
	live := []poolOp{newPoolOp(t, rng, 192), newPoolOp(t, rng, 224)}
	var wg sync.WaitGroup
	for _, op := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op.check(t, srv, eng)
		}()
	}
	waitQueued(t, srv.disp, 3)
	g.next <- struct{}{} // the blocker
	if n := g.held(t); n != 2 {
		t.Fatalf("harvested batch ran %d ops, want the 2 live ones", n)
	}
	g.next <- struct{}{}
	wg.Wait()
	if code := <-blocker; code != http.StatusOK {
		t.Fatalf("blocker answered %d", code)
	}
	g.release()
	checkMore(t, srv, eng, rng, 6)
}

// TestCancelledAttendOnHeldLane: an op whose deadline expires while its
// batch is held on the lane answers 504 and leaves its buffers to the
// GC; the batch then runs it beside a live op, which must answer bit for
// bit. Had the expired op's rows gone back to the pool, poisoned, the
// engine would refuse them and fail the whole batch.
func TestCancelledAttendOnHeldLane(t *testing.T) {
	srv, eng, g := heldServer(t)
	defer srv.Close()
	defer g.release()
	rng := rand.New(rand.NewSource(2))

	blocker := postAsync(t, srv, newPoolOp(t, rng, 160), context.Background())
	if n := g.held(t); n != 1 {
		t.Fatalf("blocker batch of %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	stale := postAsync(t, srv, newPoolOp(t, rng, 192), ctx)
	waitQueued(t, srv.disp, 1)
	done := make(chan struct{})
	live := newPoolOp(t, rng, 224)
	go func() {
		defer close(done)
		live.check(t, srv, eng)
	}()
	waitQueued(t, srv.disp, 2)
	g.next <- struct{}{} // the blocker; the stale and live ops ride the next batch
	if n := g.held(t); n != 2 {
		t.Fatalf("held batch of %d, want the stale and the live op", n)
	}
	if code := <-stale; code != http.StatusGatewayTimeout {
		t.Fatalf("held op past its deadline answered %d, want 504", code)
	}
	g.next <- struct{}{}
	<-done
	if code := <-blocker; code != http.StatusOK {
		t.Fatalf("blocker answered %d", code)
	}
	g.release()
	checkMore(t, srv, eng, rng, 6)
}
