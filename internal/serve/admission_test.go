package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// TestBadPriorityRejected verifies an unknown priority class is a 400,
// not a silent default.
func TestBadPriorityRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := []byte(`{"priority":"urgent","op":{"q":[[1]],"k":[[1]],"v":[[1]]}}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/attend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority answered %d, want 400", resp.StatusCode)
	}
}

// TestQuotaFloodIsolatesQuietClient is the synthetic-overload scenario
// from the issue: one client floods well past its token bucket while a
// quiet client trickles requests. The flooder must be throttled (429
// with Retry-After); every quiet-client op must complete with zero quota
// sheds charged to it.
func TestQuotaFloodIsolatesQuietClient(t *testing.T) {
	srv := New(Config{
		QuotaRPS:   5,
		QuotaBurst: 8,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(testSeed))
	q, k, v := genOp(rng, 2, 6)
	opts := client.AttendOptions{HeadDim: testDim, Seed: testSeed}

	const floodN, quietN = 60, 5
	var floodOK, floodShed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flood := client.New(ts.URL, client.WithClientID("flooder"))
		for i := 0; i < floodN; i++ {
			_, err := flood.Attend(context.Background(), q, k, v, opts)
			var apiErr *client.APIError
			switch {
			case err == nil:
				floodOK.Add(1)
			case asAPIError(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
				if apiErr.RetryAfter <= 0 {
					t.Errorf("throttled reply carried no Retry-After: %v", apiErr)
				}
				floodShed.Add(1)
			default:
				t.Errorf("flooder request %d: %v", i, err)
			}
		}
	}()

	quiet := client.New(ts.URL, client.WithClientID("quiet"))
	quietStart := time.Now()
	for i := 0; i < quietN; i++ {
		res, err := quiet.Attend(context.Background(), q, k, v, opts)
		if err != nil {
			t.Fatalf("quiet client op %d was not isolated from the flood: %v", i, err)
		}
		if len(res.Context) != len(q) {
			t.Fatalf("quiet op %d: got %d context rows, want %d", i, len(res.Context), len(q))
		}
	}
	quietWait := time.Since(quietStart)
	wg.Wait()

	if floodShed.Load() == 0 {
		t.Errorf("flooder sent %d ops against burst 8 and was never throttled (ok=%d)",
			floodN, floodOK.Load())
	}
	if floodOK.Load() == 0 {
		t.Error("flooder should still get its burst through, got zero successes")
	}
	// The quiet client's five ops fit entirely inside its own burst: any
	// shed charged to it would have surfaced as a 429 above; its queue
	// wait must stay bounded (well under the request timeout) while the
	// flood is on.
	if quietWait > 10*time.Second {
		t.Errorf("quiet client waited %v for %d ops", quietWait, quietN)
	}
	dec := srv.Metrics().AdmissionDecisions()
	if dec["shed_quota"] != floodShed.Load() {
		t.Errorf("shed_quota metric = %d, want %d (only the flooder's sheds)",
			dec["shed_quota"], floodShed.Load())
	}
	if dec["admitted"] == 0 {
		t.Error("no ops recorded as admitted")
	}
}

// asAPIError adapts errors.As to a test-side helper.
func asAPIError(err error, target **client.APIError) bool {
	if e, ok := err.(*client.APIError); ok {
		*target = e
		return true
	}
	return false
}

// TestDeadlineShedSkipsQueueWait verifies deadline-aware shedding: while
// every lane is held busy, an op whose deadline_ms cannot cover the
// estimated queue wait is refused immediately with Retry-After instead
// of sitting in queue until it times out.
func TestDeadlineShedSkipsQueueWait(t *testing.T) {
	const svc = 400 * time.Millisecond
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(testSeed))
	q, k, v := genOp(rng, 2, 6)
	req := wire.AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed}
	set, err := srv.pool.get(attendEngineOptions(&req))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(srv.disp, set)
	defer openAll(gates)
	occupy(t, srv.disp, set, gates)
	// Each held lane is one service time from free, so the estimate is
	// two service times: far past the 20ms deadline.
	srv.disp.mu.Lock()
	srv.disp.svcEWMA = svc.Seconds()
	srv.disp.mu.Unlock()

	op, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(wire.Envelope[json.RawMessage]{ClientID: "hurried", DeadlineMS: 20, Op: op})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/attend", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)

	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unmeetable deadline answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("deadline shed carried no Retry-After header")
	}
	// The whole point: the op must be refused up front, not after paying
	// the queue wait (or its own 20ms timeout as a 504).
	if elapsed > svc/2 {
		t.Errorf("deadline shed took %v; it should not pay the %v queue wait", elapsed, 2*svc)
	}
	if dec := srv.Metrics().AdmissionDecisions(); dec["shed_deadline"] != 1 {
		t.Errorf("shed_deadline metric = %d, want 1", dec["shed_deadline"])
	}
}

// TestWeightedDequeueDefersBackground drives the dispatcher directly:
// with maxBatch 4 and default 16:4:1 weights, three background ops and
// one interactive op queue behind a held lane. When it frees, the lane
// harvests the interactive op with only background's weight share (1
// op) alongside, deferring the other background ops to its next
// harvest — progress for both, no displacement of the interactive op.
func TestWeightedDequeueDefersBackground(t *testing.T) {
	p, d, m := newTestStack(t, 1, 4, 4, 64)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	gates := gateLanes(d, set)
	defer openAll(gates)
	occupy(t, d, set, gates)
	rng := rand.New(rand.NewSource(testSeed))
	q, k, v := genOp(rng, 2, 6)

	var wg sync.WaitGroup
	bgBatch := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _ := d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassBackground, time.Time{})
			if r.err != nil {
				t.Errorf("background op %d: %v", i, r.err)
			}
			bgBatch[i] = r.batchSize
		}(i)
	}
	// All three background ops wait before the interactive op arrives.
	waitQueued(t, d, 3)
	size := make(chan int, 1)
	go func() {
		r, _ := d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
		if r.err != nil {
			t.Error(r.err)
		}
		size <- r.batchSize
	}()
	waitQueued(t, d, 4)
	openAll(gates)
	wg.Wait()

	// The interactive op's batch carried itself plus background's cap
	// of max(1, 4*1/21) = 1 op.
	if n := <-size; n != 2 {
		t.Errorf("interactive op dispatched in a batch of %d, want 2 (self + capped background)", n)
	}
	if got := m.preempted.with("background").value(); got != 2 {
		t.Errorf("preempted{background} = %d, want 2", got)
	}
	// Every background op shares a batch of 2: one rode along with the
	// interactive op, the two deferred ones leave together in the lane's
	// next harvest.
	for i, size := range bgBatch {
		if size != 2 {
			t.Errorf("background op %d dispatched in a batch of %d, want 2 (sizes %v)", i, size, bgBatch)
		}
	}
}

// TestSessionsInheritCreatorQuota verifies decode-session traffic is
// charged to the client that created the session, even when the
// follow-up requests carry no client_id themselves.
func TestSessionsInheritCreatorQuota(t *testing.T) {
	srv := New(Config{
		QuotaRPS:   0.001, // effectively no refill within the test
		QuotaBurst: 3,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	create, err := json.Marshal(wire.Envelope[json.RawMessage]{
		ClientID: "owner",
		Op:       json.RawMessage(fmt.Sprintf(`{"head_dim":%d,"seed":%d}`, testDim, testSeed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(create))
	if err != nil {
		t.Fatal(err)
	}
	var created wire.SessionCreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d", resp.StatusCode)
	}

	key := make([]float32, testDim)
	key[0] = 1
	op, err := json.Marshal(wire.SessionAppendRequest{Key: key, Value: key})
	if err != nil {
		t.Fatal(err)
	}
	appendBody, err := json.Marshal(wire.Envelope[json.RawMessage]{Op: op})
	if err != nil {
		t.Fatal(err)
	}
	// Burst 3: create consumed 1, so two appends without a client_id pass
	// and the third must be shed against the creator's bucket.
	codes := make([]int, 3)
	for i := range codes {
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/append",
			"application/json", bytes.NewReader(appendBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes[i] = resp.StatusCode
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("session quota shed carried no Retry-After")
		}
	}
	want := []int{http.StatusOK, http.StatusOK, http.StatusTooManyRequests}
	for i := range codes {
		if codes[i] != want[i] {
			t.Fatalf("append status codes = %v, want %v", codes, want)
		}
	}
}

// TestQuotaBucketMath unit-tests the token bucket with an injected
// clock.
func TestQuotaBucketMath(t *testing.T) {
	q := newQuotas(2, 2)
	now := time.Unix(0, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if admitted, _ := q.take("c"); !admitted {
			t.Fatalf("burst op %d refused", i)
		}
	}
	admitted, wait := q.take("c")
	if admitted {
		t.Fatal("op beyond burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("refusal wait = %v, want (0, 1s] at 2 rps", wait)
	}
	now = now.Add(500 * time.Millisecond) // one token refilled
	if admitted, _ = q.take("c"); !admitted {
		t.Fatal("op after refill refused")
	}
	if admitted, _ = q.take("c"); admitted {
		t.Fatal("second op after single-token refill admitted")
	}
	if newQuotas(0, 10) != nil {
		t.Fatal("rps 0 should disable quotas")
	}
	var disabled *quotas
	if admitted, _ := disabled.take("x"); !admitted {
		t.Fatal("nil quotas must admit everything")
	}
}
