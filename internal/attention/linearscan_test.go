package attention

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"elsa/internal/fixed"
	"elsa/internal/tensor"
)

// maxAbsV returns the value-magnitude scale the differential bound's
// absolute floor is proportional to.
func maxAbsV(v *tensor.Matrix) float64 {
	m := 0.0
	for _, x := range v.Data {
		if a := math.Abs(float64(x)); a > m {
			m = a
		}
	}
	return m
}

// assertWithinBound checks every element of the two exact backends'
// outputs against the pinned differential bound.
func assertWithinBound(t *testing.T, scores, scan *tensor.Matrix, v *tensor.Matrix) {
	t.Helper()
	absTol := LinearScanTolerance(maxAbsV(v))
	for i := 0; i < scores.Rows; i++ {
		srow, lrow := scores.Row(i), scan.Row(i)
		for j := range srow {
			if !WithinLinearScanBound(srow[j], lrow[j], absTol) {
				t.Fatalf("row %d col %d: scores=%v linear-scan=%v (ulp=%d, absTol=%g)",
					i, j, srow[j], lrow[j], ULPDiff32(srow[j], lrow[j]), absTol)
			}
		}
	}
}

// unitRoundoff is float32's unit roundoff u = 2⁻²⁴.
const unitRoundoff = 0x1p-24

// assertRowWithinBudget holds got, one exact-backend output row for query
// qrow over keys and values 0..n-1, to want, the linear-scan oracle's row
// for the same query, within an error budget per column j:
//
//	c·u·S_j + 2u·|o_j| + 2u·T_j
//
// with S_j = Σ_y w_y·|V_yj| and T_j = Σ_y w_y·(|l_y| + Σ_z w_z·|l_z|)·|V_yj|,
// the logits l_y and softmax weights w_y taken in float64 from the
// float32 dot products both backends share. The first term covers the
// float32 accumulate; c = n + 2 is its first-order worst case over n
// weighted rows, and the at-scale test also passes c = 4√n. The second
// covers the two outputs' final roundings. The third covers the one
// place the logits differ: the linear scan rounds dot·scale to float32,
// moving each logit by up to 2u·|l_y|, while the scores path keeps it in
// float64; it matters only where logits are large (near −200 in the
// fuzz suite's mode 3).
func assertRowWithinBudget(t *testing.T, what string, got, want, qrow []float32, k, v *tensor.Matrix, n int, scale, c float64) {
	t.Helper()
	logits, w := make([]float64, n), make([]float64, n)
	m := math.Inf(-1)
	for y := range logits {
		logits[y] = float64(tensor.Dot(qrow, k.Row(y))) * scale
		m = max(m, logits[y])
	}
	sum := 0.0
	for y, l := range logits {
		w[y] = math.Exp(l - m)
		sum += w[y]
	}
	meanAbsLogit := 0.0
	for y := range w {
		w[y] /= sum
		meanAbsLogit += w[y] * math.Abs(logits[y])
	}
	for j, o := range want {
		s, tj := 0.0, 0.0
		for y, wy := range w {
			a := wy * math.Abs(float64(v.At(y, j)))
			s += a
			tj += a * (math.Abs(logits[y]) + meanAbsLogit)
		}
		budget := c*unitRoundoff*s + 2*unitRoundoff*math.Abs(float64(o)) + 2*unitRoundoff*tj
		if gap := math.Abs(float64(got[j]) - float64(o)); !(gap <= budget) {
			t.Fatalf("%s col %d: %v against linear scan %v: gap %g over budget %g (S_j=%g, T_j=%g, c=%g)",
				what, j, got[j], o, gap, budget, s, tj, c)
		}
	}
}

// buildFuzzCase deterministically expands fuzz inputs into a Q/K/V
// triple. mode selects a generator family so the corpus covers the
// degenerate softmax regimes, not just Gaussian logits:
//
//	0: random normal Q/K/V
//	1: one huge logit per query (one key scaled enormously — softmax
//	   saturates to a single weight)
//	2: all-equal logits (identical keys — uniform softmax; the scan's
//	   running max never moves after the first key)
//	3: negative-overflow rows (logits around -200/scale — exp(l - m)
//	   underflows for all but the leading key)
//	4: adversarial ascending logits (each key strictly larger — the scan
//	   rescales its state on every single step)
func buildFuzzCase(mode uint8, seed int64, nq, n, d int, scale float64) (q, k, v *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	q = tensor.RandomNormal(rng, nq, d)
	v = tensor.RandomNormal(rng, n, d)
	switch mode % 5 {
	case 1:
		k = tensor.RandomNormal(rng, n, d)
		huge := k.Row(rng.Intn(n))
		for j := range huge {
			huge[j] *= 1e4
		}
	case 2:
		k = tensor.New(n, d)
		row0 := tensor.RandomNormal(rng, 1, d).Row(0)
		for i := 0; i < n; i++ {
			copy(k.Row(i), row0)
		}
	case 3:
		// Query aligned with a direction, keys anti-aligned with huge
		// magnitude: every logit is a large negative number and all but
		// the max-weight key underflow to zero weight.
		k = tensor.New(n, d)
		for i := 0; i < nq; i++ {
			qrow := q.Row(i)
			for j := range qrow {
				qrow[j] = 1
			}
		}
		for i := 0; i < n; i++ {
			row := k.Row(i)
			mag := -200 / (scale * float64(d)) * (1 + 0.1*rng.Float64())
			for j := range row {
				row[j] = float32(mag)
			}
		}
	case 4:
		k = tensor.New(n, d)
		for i := 0; i < nq; i++ {
			qrow := q.Row(i)
			for j := range qrow {
				qrow[j] = 1
			}
		}
		for i := 0; i < n; i++ {
			row := k.Row(i)
			for j := range row {
				row[j] = float32(i+1) / float32(n)
			}
		}
	default:
		k = tensor.RandomNormal(rng, n, d)
	}
	return q, k, v
}

// FuzzLinearScanMatchesScores is the differential fuzz suite between the
// two independent exact implementations: for arbitrary shapes, scales,
// seeds, and degenerate-regime generators, ExactLinearScan must agree
// with ExactWithScores within the pinned ULP bound. The seeded corpus —
// including n=1, a single huge logit, all-equal logits, and rows whose
// exponentials underflow — runs in every regular `go test`.
func FuzzLinearScanMatchesScores(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(4), uint8(16), uint8(8), float64(0))
	f.Add(uint8(0), int64(2), uint8(7), uint8(33), uint8(5), 1.0)
	f.Add(uint8(0), int64(3), uint8(1), uint8(1), uint8(1), 0.125) // n=1, d=1
	f.Add(uint8(1), int64(4), uint8(3), uint8(24), uint8(8), float64(0))
	f.Add(uint8(2), int64(5), uint8(5), uint8(17), uint8(4), float64(0))
	f.Add(uint8(3), int64(6), uint8(2), uint8(12), uint8(8), float64(0))
	f.Add(uint8(4), int64(7), uint8(2), uint8(50), uint8(6), float64(0))
	f.Add(uint8(1), int64(8), uint8(1), uint8(1), uint8(16), float64(0)) // n=1, huge logit
	f.Fuzz(func(t *testing.T, mode uint8, seed int64, nqRaw, nRaw, dRaw uint8, scale float64) {
		nq := int(nqRaw)%16 + 1
		n := int(nRaw)%96 + 1
		d := int(dRaw)%32 + 1
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 16 {
			scale = 0
		}
		if scale == 0 {
			scale = DefaultScale(d)
		}
		q, k, v := buildFuzzCase(mode, seed, nq, n, d, scale)
		exactOut, _ := ExactWithScores(q, k, v, scale)
		scanOut := ExactLinearScan(q, k, v, scale)
		assertWithinBound(t, exactOut, scanOut, v)
	})
}

// TestLinearScanEngineMatchesFree pins the engine-resident linear scan
// (workspace path, quantized staging) against the free function over the
// same preprocessed data: on a float engine they are bit-identical; on a
// quantized engine the engine path must equal the free function applied
// to the quantized inputs.
func TestLinearScanEngineMatchesFree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, quantized := range []bool{false, true} {
		e := newTestEngine(t, Config{D: 16, Seed: 9, Quantized: quantized})
		q := tensor.RandomNormal(rng, 6, 16)
		k := tensor.RandomNormal(rng, 40, 16)
		v := tensor.RandomNormal(rng, 40, 16)
		p, err := e.PreprocessExact(k, v)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace(e)
		res, err := e.AttendLinearScanWith(ws, q, p)
		if err != nil {
			t.Fatal(err)
		}
		// The free function sees what the engine staged: quantized K/V
		// live in p already; queries must be staged the same way.
		qs := q.Clone()
		if quantized {
			fixed.QKV.QuantizeSlice(qs.Data)
		}
		want := ExactLinearScan(qs, p.Keys, p.Values, e.cfg.Scale)
		for i := 0; i < q.Rows; i++ {
			for j, x := range want.Row(i) {
				if got := res.Output.Row(i)[j]; got != x {
					t.Fatalf("quantized=%v row %d col %d: engine %v, free %v", quantized, i, j, got, x)
				}
			}
		}
		if res.FallbackQueries != 0 {
			t.Fatalf("linear scan reported %d fallbacks", res.FallbackQueries)
		}
		for i, c := range res.CandidateCounts {
			if c != 40 {
				t.Fatalf("query %d: %d candidates, want all 40", i, c)
			}
		}
	}
}

// TestLinearScanStreamingMatchesBatch is the streaming ≡ batch
// equivalence satellite: a stream appended token-by-token — across the
// cold-watermark demotion boundary — answers QueryLinearScan
// bit-identically to a one-shot AttendLinearScanWith over the
// materialized prefix (Rows()), after every single append.
func TestLinearScanStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const d, total = 16, 48
	for _, tc := range []struct {
		name      string
		quantized bool
		watermark int
	}{
		{"float-allhot", false, 0},
		{"float-cold", false, 8},
		{"quantized-cold", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{D: d, Seed: 13, Quantized: tc.quantized})
			st := e.NewStreamCold(0, tc.watermark)
			k := tensor.RandomNormal(rng, total, d)
			v := tensor.RandomNormal(rng, total, d)
			q := tensor.RandomNormal(rng, 1, d).Row(0)
			ws := NewWorkspace(e)
			var dst []float32
			for i := 0; i < total; i++ {
				if err := st.Append(k.Row(i), v.Row(i)); err != nil {
					t.Fatal(err)
				}
				out, stats, err := st.QueryLinearScan(dst, q)
				if err != nil {
					t.Fatal(err)
				}
				dst = out
				if stats.Candidates != i+1 {
					t.Fatalf("step %d: %d candidates, want %d", i, stats.Candidates, i+1)
				}
				keys, values := st.Rows()
				km, vm := tensor.New(i+1, d), tensor.New(i+1, d)
				for y := 0; y <= i; y++ {
					copy(km.Row(y), keys[y])
					copy(vm.Row(y), values[y])
				}
				p, err := e.PreprocessExact(km, vm)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.AttendLinearScanWith(ws, &tensor.Matrix{Rows: 1, Cols: d, Data: q}, p)
				if err != nil {
					t.Fatal(err)
				}
				for j, want := range res.Output.Row(0) {
					if out[j] != want {
						t.Fatalf("step %d col %d (cold=%d): stream %v, batch %v",
							i, j, st.ColdLen(), out[j], want)
					}
				}
			}
			if tc.watermark > 0 && st.ColdLen() == 0 {
				t.Fatal("test never crossed the demotion boundary")
			}
		})
	}
}

// TestLinearScanDecodeZeroAlloc pins the decode hot path's allocation
// contract: a stream query through the linear-scan backend with a
// recycled output buffer performs zero steady-state heap allocations.
func TestLinearScanDecodeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := newTestEngine(t, Config{D: 32, Seed: 5})
	st := e.NewStreamCold(0, 16)
	k := tensor.RandomNormal(rng, 64, 32)
	v := tensor.RandomNormal(rng, 64, 32)
	fillStream(t, st, k, v)
	q := tensor.RandomNormal(rng, 1, 32).Row(0)
	dst := make([]float32, 32)
	// Warm the workspace (cold decode buffers, result matrix) once.
	if _, _, err := st.QueryLinearScan(dst, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := st.QueryLinearScan(dst, q)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
	})
	if allocs != 0 {
		t.Fatalf("linear-scan decode allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLinearScanNoScoreMatrix pins the memory ceiling the backend exists
// for: attending n keys through the linear scan must not allocate the
// n×n (or n_q×n) score matrices the scores path materializes. Measured
// as total bytes allocated per op staying far under one score matrix.
func TestLinearScanNoScoreMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, d, nq = 2048, 32, 4
	q := tensor.RandomNormal(rng, nq, d)
	k := tensor.RandomNormal(rng, n, d)
	v := tensor.RandomNormal(rng, n, d)
	scale := DefaultScale(d)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := ExactLinearScan(q, k, v, scale)
	runtime.ReadMemStats(&after)
	if out.Rows != nq {
		t.Fatalf("output rows %d", out.Rows)
	}
	scoreBytes := uint64(nq * n * 4) // one float32 score matrix
	if got := after.TotalAlloc - before.TotalAlloc; got >= scoreBytes {
		t.Fatalf("linear scan allocated %dB for n=%d — at least a score matrix (%dB); the point is O(d) state",
			got, n, scoreBytes)
	}
}
