package attention

import (
	"math/rand"
	"testing"

	"elsa/internal/tensor"
)

// benchSetup builds an engine, preprocessed keys and a query matrix plus a
// calibrated-looking threshold for the steady-state benchmarks.
func benchSetup(tb testing.TB, n, d int, quantized bool) (*Engine, *tensor.Matrix, *Preprocessed, float64) {
	tb.Helper()
	e, err := NewEngine(Config{D: d, Quantized: quantized, Seed: 7})
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	q := tensor.New(n, d)
	k := tensor.New(n, d)
	v := tensor.New(n, d)
	for _, m := range []*tensor.Matrix{q, k, v} {
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	p, err := e.Preprocess(k, v)
	if err != nil {
		tb.Fatalf("Preprocess: %v", err)
	}
	// A mid-range threshold that admits a fraction of the keys, like a
	// calibrated p=1..2 operating point.
	return e, q, p, 0.5
}

// TestAttendWithZeroAlloc asserts the tentpole property: after warm-up, a
// steady-state AttendWith call performs zero heap allocations. It must not
// be skipped under -short — it is this PR's acceptance gate.
func TestAttendWithZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		quantized bool
	}{
		{"float", false},
		{"quantized", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, q, p, thr := benchSetup(t, 64, 64, tc.quantized)
			ws := NewWorkspace(e)
			// Warm up so every workspace buffer reaches its steady size.
			if _, err := e.AttendWith(ws, q, p, thr); err != nil {
				t.Fatalf("AttendWith: %v", err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := e.AttendWith(ws, q, p, thr); err != nil {
					t.Fatalf("AttendWith: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state AttendWith allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestAttendWithNoCollectZeroAlloc covers the serving configuration, which
// also skips candidate-list bookkeeping.
func TestAttendWithNoCollectZeroAlloc(t *testing.T) {
	e, q, p, thr := benchSetup(t, 64, 64, false)
	ws := NewWorkspace(e)
	ws.CollectCandidates = false
	if _, err := e.AttendWith(ws, q, p, thr); err != nil {
		t.Fatalf("AttendWith: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.AttendWith(ws, q, p, thr); err != nil {
			t.Fatalf("AttendWith: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("no-collect AttendWith allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAttendWithMatchesAttend pins the bit-identical contract between the
// allocating and workspace paths.
func TestAttendWithMatchesAttend(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		e, q, p, thr := benchSetup(t, 48, 64, quantized)
		want, err := e.Attend(q, p, thr)
		if err != nil {
			t.Fatalf("Attend: %v", err)
		}
		ws := NewWorkspace(e)
		got, err := e.AttendWith(ws, q, p, thr)
		if err != nil {
			t.Fatalf("AttendWith: %v", err)
		}
		for i := range want.Output.Data {
			if want.Output.Data[i] != got.Output.Data[i] {
				t.Fatalf("quantized=%v: output[%d] = %v via workspace, %v via Attend",
					quantized, i, got.Output.Data[i], want.Output.Data[i])
			}
		}
		if got.TotalCandidates != want.TotalCandidates || got.FallbackQueries != want.FallbackQueries {
			t.Fatalf("quantized=%v: stats (%d,%d) via workspace, (%d,%d) via Attend", quantized,
				got.TotalCandidates, got.FallbackQueries, want.TotalCandidates, want.FallbackQueries)
		}
		for i := range want.Candidates {
			if len(want.Candidates[i]) != len(got.Candidates[i]) {
				t.Fatalf("quantized=%v: query %d candidate count mismatch", quantized, i)
			}
			for j := range want.Candidates[i] {
				if want.Candidates[i][j] != got.Candidates[i][j] {
					t.Fatalf("quantized=%v: query %d candidate %d mismatch", quantized, i, j)
				}
			}
		}
	}
}

// BenchmarkAttendSteadyState is the tentpole benchmark: the zero-allocation
// workspace attend over n=256 keys at d=64. b.ReportAllocs surfaces the
// allocs/op figure the acceptance criteria pin at 0.
func BenchmarkAttendSteadyState(b *testing.B) {
	e, q, p, thr := benchSetup(b, 256, 64, false)
	ws := NewWorkspace(e)
	if _, err := e.AttendWith(ws, q, p, thr); err != nil {
		b.Fatalf("AttendWith: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AttendWith(ws, q, p, thr); err != nil {
			b.Fatalf("AttendWith: %v", err)
		}
	}
}

// BenchmarkAttend tracks the allocating compatibility path for comparison.
func BenchmarkAttend(b *testing.B) {
	e, q, p, thr := benchSetup(b, 256, 64, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Attend(q, p, thr); err != nil {
			b.Fatalf("Attend: %v", err)
		}
	}
}

// BenchmarkPreprocess tracks the per-key hash+norm pipeline.
func BenchmarkPreprocess(b *testing.B) {
	e, _, p, _ := benchSetup(b, 256, 64, false)
	keys, values := p.Keys, p.Values
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Preprocess(keys, values); err != nil {
			b.Fatalf("Preprocess: %v", err)
		}
	}
}

// BenchmarkHashVector tracks one query's k-bit sign hash through the
// (4×4)^⊗3 Kronecker projection at d = 64.
func BenchmarkHashVector(b *testing.B) {
	e, q, _, _ := benchSetup(b, 1, 64, false)
	ws := NewWorkspace(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HashVectorInto(ws.hashWords, q.Row(0), ws)
	}
}

// BenchmarkWeightedSum tracks the float softmax·V kernel over every
// fourth key of n = 512 (about the candidate fraction of a p = 1 op).
func BenchmarkWeightedSum(b *testing.B) {
	const n, d = 512, 64
	e, q, p, _ := benchSetup(b, n, d, false)
	ws := NewWorkspace(e)
	var cand []int
	var scores []float64
	for y := 0; y < n; y += 4 {
		cand = append(cand, y)
		scores = append(scores, float64(tensor.Dot(q.Row(0), p.Keys.Row(y)))*e.cfg.Scale)
	}
	out := make([]float32, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.weightedSum(out, cand, scores, p, ws)
	}
}

// BenchmarkLinearScanRow tracks one query's online-softmax pass over
// n = 512 keys.
func BenchmarkLinearScanRow(b *testing.B) {
	const n, d = 512, 64
	e, q, p, _ := benchSetup(b, n, d, false)
	ws := NewWorkspace(e)
	out := make([]float32, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linearScanRow(out, q.Row(0), e.cfg.Scale, p, ws, ws.acc, nil)
	}
}

// BenchmarkAttendExactThreshold tracks the p = 0 scores backend: 64
// queries attending every one of n = 256 keys.
func BenchmarkAttendExactThreshold(b *testing.B) {
	e, q, p, _ := benchSetup(b, 256, 64, false)
	q = &tensor.Matrix{Rows: 64, Cols: 64, Data: q.Data[:64*64]}
	ws := NewWorkspace(e)
	if _, err := e.AttendWith(ws, q, p, ExactThresholdNoApprox); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AttendWith(ws, q, p, ExactThresholdNoApprox); err != nil {
			b.Fatal(err)
		}
	}
}
