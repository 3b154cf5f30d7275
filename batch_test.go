package elsa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func makeBatch(rng *rand.Rand, ops, n, d int) []BatchOp {
	batch := make([]BatchOp, ops)
	for i := range batch {
		q, k, v := genData(rng, n, n, d)
		batch[i] = BatchOp{Q: q, K: k, V: v}
	}
	return batch
}

func TestAttendBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	e := newEngine(t, Options{Seed: 20})
	batch := makeBatch(rng, 6, 32, 64)
	par, err := e.AttendBatch(batch, Exact(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != 6 {
		t.Fatalf("got %d outputs", len(par))
	}
	for i, op := range batch {
		seq, err := e.Attend(op.Q, op.K, op.V, Exact())
		if err != nil {
			t.Fatal(err)
		}
		for r := range seq.Context {
			for c := range seq.Context[r] {
				if seq.Context[r][c] != par[i].Context[r][c] {
					t.Fatalf("op %d: parallel result differs from sequential at %d,%d", i, r, c)
				}
			}
		}
	}
}

func TestAttendBatchEdgeCases(t *testing.T) {
	e := newEngine(t, Options{Seed: 21})
	out, err := e.AttendBatch(nil, Exact(), 4)
	if err != nil || out != nil {
		t.Error("empty batch should return nil, nil")
	}
	rng := rand.New(rand.NewSource(21))
	batch := makeBatch(rng, 3, 16, 64)
	// workers <= 0 and workers > len(ops) must both work.
	if _, err := e.AttendBatch(batch, Exact(), 0); err != nil {
		t.Error(err)
	}
	if _, err := e.AttendBatch(batch, Exact(), 99); err != nil {
		t.Error(err)
	}
}

func TestAttendBatchPropagatesErrors(t *testing.T) {
	e := newEngine(t, Options{Seed: 22})
	rng := rand.New(rand.NewSource(22))
	batch := makeBatch(rng, 3, 16, 64)
	batch[1].Q = [][]float32{{1, 2}} // wrong dimension
	if _, err := e.AttendBatch(batch, Exact(), 2); err == nil {
		t.Fatal("bad op should fail the batch")
	}
}

// TestAttendBatchLargestFirstMatchesSerial: workers take ops largest
// first, but a batch of mixed sizes, ties and thresholds still returns
// every output in input order, bit-identical to running each op alone,
// and of two failing ops it reports the lower index with the op's own
// error text, even when the higher one is larger and so runs first.
func TestAttendBatchLargestFirstMatchesSerial(t *testing.T) {
	e := newEngine(t, Options{Seed: 28})
	rng := rand.New(rand.NewSource(28))
	var batch []BatchOp
	for i, n := range []int{8, 40, 16, 40, 24, 64, 16} {
		q, k, v := genData(rng, n/2+1, n, 64)
		op := BatchOp{Q: q, K: k, V: v}
		if i%3 == 1 {
			thr := Exact()
			op.Thr = &thr
		}
		batch = append(batch, op)
	}
	thr, err := e.Calibrate(1, []Sample{{Q: batch[5].Q, K: batch[5].K}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		outs, err := e.AttendBatch(batch, thr, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range batch {
			want, err := e.run(op, thr)
			if err != nil {
				t.Fatal(err)
			}
			for r := range want.Context {
				for c, x := range want.Context[r] {
					if math.Float32bits(outs[i].Context[r][c]) != math.Float32bits(x) {
						t.Fatalf("workers=%d op %d: batch output differs from serial at %d,%d", workers, i, r, c)
					}
				}
			}
		}
	}

	failing := append([]BatchOp(nil), batch...)
	failing[1].Q = [][]float32{{1, 2}}
	failing[5].Q = [][]float32{{1, 2, 3}}
	_, opErr := e.run(failing[1], thr)
	if opErr == nil {
		t.Fatal("a 2-column query should fail")
	}
	want := "elsa: op 1: " + opErr.Error()
	for _, workers := range []int{1, 3} {
		if _, err := e.AttendBatch(failing, thr, workers); err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %v, want %q", workers, err, want)
		}
	}
}

// attendBatchMustErr runs a batch that must fail and returns its error.
func attendBatchMustErr(t *testing.T, e *Engine, batch []BatchOp) error {
	t.Helper()
	_, err := e.AttendBatch(batch, Exact(), 2)
	if err == nil {
		t.Fatal("malformed op should fail the batch")
	}
	return err
}

func TestAttendBatchRejectsMalformedOpsWithIndex(t *testing.T) {
	e := newEngine(t, Options{Seed: 26})
	rng := rand.New(rand.NewSource(26))

	// Nil row inside K.
	batch := makeBatch(rng, 3, 16, 64)
	batch[2].K[5] = nil
	err := attendBatchMustErr(t, e, batch)
	if !strings.Contains(err.Error(), "op 2") || !strings.Contains(err.Error(), "row 5 is nil") {
		t.Errorf("nil-row error should carry op and row index, got: %v", err)
	}

	// Ragged V.
	batch = makeBatch(rng, 3, 16, 64)
	batch[1].V[4] = batch[1].V[4][:7]
	err = attendBatchMustErr(t, e, batch)
	if !strings.Contains(err.Error(), "op 1") || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("ragged error should carry the op index, got: %v", err)
	}

	// Empty Q.
	batch = makeBatch(rng, 2, 16, 64)
	batch[0].Q = nil
	err = attendBatchMustErr(t, e, batch)
	if !strings.Contains(err.Error(), "op 0") || !strings.Contains(err.Error(), "Q has no rows") {
		t.Errorf("empty-Q error should name op 0, got: %v", err)
	}

	// Key/value count mismatch is caught up front too.
	batch = makeBatch(rng, 2, 16, 64)
	batch[1].V = batch[1].V[:9]
	err = attendBatchMustErr(t, e, batch)
	if !strings.Contains(err.Error(), "op 1") || !strings.Contains(err.Error(), "16 keys but 9 values") {
		t.Errorf("mismatch error should name op 1, got: %v", err)
	}

	// Execution errors (past validation) carry the index as well: a wrong
	// column count is well-formed per-op but rejected by the engine.
	batch = makeBatch(rng, 3, 16, 64)
	batch[1].Q = [][]float32{{1, 2}}
	err = attendBatchMustErr(t, e, batch)
	if !strings.Contains(err.Error(), "op 1") {
		t.Errorf("engine error should carry the op index, got: %v", err)
	}
}

func TestAttendBatchContextCancellation(t *testing.T) {
	e := newEngine(t, Options{Seed: 27})
	rng := rand.New(rand.NewSource(27))
	batch := makeBatch(rng, 4, 16, 64)

	// Already-canceled context: nothing dispatches.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AttendBatchContext(ctx, batch, Exact(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancellation mid-batch: a single worker grinding through a heavy
	// batch is canceled early and must stop well before the full batch
	// would have finished.
	heavy := makeBatch(rng, 48, 256, 64)
	full := timeFullBatch(t, e, heavy)
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(full/20, cancel)
	start := time.Now()
	if _, err := e.AttendBatchContext(ctx, heavy, Exact(), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := time.Since(start); got > full/2 {
		t.Errorf("canceled batch took %v, full batch takes %v: dispatch did not stop early", got, full)
	}

	// Background context behaves exactly like AttendBatch.
	outs, err := e.AttendBatchContext(context.Background(), batch, Exact(), 2)
	if err != nil || len(outs) != len(batch) {
		t.Fatalf("background context run failed: %v", err)
	}
}

// timeFullBatch measures the uncanceled single-worker batch for comparison.
func timeFullBatch(t *testing.T, e *Engine, batch []BatchOp) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := e.AttendBatch(batch, Exact(), 1); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

func TestSimulateBatchFleetBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := newEngine(t, Options{Seed: 23})
	batch := makeBatch(rng, 24, 64, 64)
	rep, err := e.SimulateBatch(batch, Exact(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) != 24 || rep.Accelerators != 12 {
		t.Fatalf("report shape wrong: %d ops, %d accels", len(rep.Ops), rep.Accelerators)
	}
	if rep.MakespanSeconds <= 0 || rep.ThroughputOpsPerSec <= 0 {
		t.Error("timing must be positive")
	}
	if rep.Utilization <= 0.5 || rep.Utilization > 1 {
		t.Errorf("uniform batch should fill the fleet well, utilization %g", rep.Utilization)
	}
	// A single accelerator must be ~12x slower on a uniform batch.
	rep1, err := e.SimulateBatch(batch, Exact(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rep1.MakespanSeconds / rep.MakespanSeconds
	if ratio < 10 || ratio > 13 {
		t.Errorf("fleet scaling ratio %g, want ~12", ratio)
	}
}

func TestSimulateBatchDefaultsToTwelve(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	e := newEngine(t, Options{Seed: 24})
	rep, err := e.SimulateBatch(makeBatch(rng, 2, 32, 64), Exact(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accelerators != 12 {
		t.Errorf("default fleet size = %d, want the paper's 12", rep.Accelerators)
	}
}

func TestSimulateBatchPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	e := newEngine(t, Options{Seed: 25})
	batch := makeBatch(rng, 2, 32, 64)
	batch[0].K = batch[0].K[:1] // key/value mismatch
	if _, err := e.SimulateBatch(batch, Exact(), 4); err == nil {
		t.Error("bad op should fail the batch")
	}
}

// TestAttendBatchPerOpThresholds mixes ops carrying their own thresholds
// with ops inheriting the batch-level one and checks each matches a
// sequential Attend at its effective operating point.
func TestAttendBatchPerOpThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	e := newEngine(t, Options{Seed: 24})
	batch := makeBatch(rng, 4, 32, 64)
	tight := Threshold{P: 1, T: 0.8}
	loose := Threshold{P: 1, T: 0.1}
	batch[1].Thr = &tight
	batch[3].Thr = &loose
	shared := Exact()

	par, err := e.AttendBatch(batch, shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range batch {
		want := shared
		if op.Thr != nil {
			want = *op.Thr
		}
		seq, err := e.Attend(op.Q, op.K, op.V, want)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].CandidateFraction != seq.CandidateFraction {
			t.Errorf("op %d: candidate fraction %g, sequential %g (per-op threshold ignored)",
				i, par[i].CandidateFraction, seq.CandidateFraction)
		}
		for r := range seq.Context {
			for c := range seq.Context[r] {
				if seq.Context[r][c] != par[i].Context[r][c] {
					t.Fatalf("op %d: differs from sequential at %d,%d", i, r, c)
				}
			}
		}
	}
	// A tighter threshold must actually prune more than a looser one on the
	// same-distribution inputs, proving the two ops ran at distinct points.
	if par[1].CandidateFraction >= par[3].CandidateFraction {
		t.Errorf("tight threshold admitted %g of keys, loose admitted %g; want tight < loose",
			par[1].CandidateFraction, par[3].CandidateFraction)
	}
}
