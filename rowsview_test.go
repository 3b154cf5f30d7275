package elsa

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"elsa/internal/tensor"
)

// windows returns n rows of width d over one backing, row i starting
// stride·i elements in, each keeping the capacity to the end of the
// backing: a packed body's decoded rows have this shape at stride d.
func windows(rng *rand.Rand, n, d, stride int) [][]float32 {
	backing := make([]float32, (n-1)*stride+d)
	for i := range backing {
		backing[i] = float32(rng.NormFloat64())
	}
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = backing[i*stride : i*stride+d]
	}
	return rows
}

// ownRows copies rows into a row-per-allocation matrix, the layout
// toMatrix always copies.
func ownRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// bits snapshots rows' float bits.
func bits(rows [][]float32) [][]uint32 {
	out := make([][]uint32, len(rows))
	for i, r := range rows {
		out[i] = make([]uint32, len(r))
		for j, x := range r {
			out[i][j] = math.Float32bits(x)
		}
	}
	return out
}

func sameBits(a, b [][]float32) bool {
	return slices.EqualFunc(bits(a), bits(b), slices.Equal[[]uint32])
}

// TestToMatrixViewsContiguousRows pins the engine's zero-copy input:
// consecutive equal-length windows of one slice, as a packed body
// decodes and as tensor.Matrix.Row returns, reach the engine as a
// matrix over the caller's own storage, with one small allocation (the
// matrix header) and no copy.
func TestToMatrixViewsContiguousRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decoded := windows(rng, 64, 32, 32)
	m := tensor.New(48, 16)
	views := make([][]float32, m.Rows)
	for i := range views {
		views[i] = m.Row(i)
	}
	for name, rows := range map[string][][]float32{"decoded": decoded, "matrix rows": views} {
		got, err := toMatrix(name, rows, len(rows[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != len(rows) || len(got.Data) != len(rows)*len(rows[0]) || &got.Data[0] != &rows[0][0] {
			t.Errorf("%s: %dx%d matrix over %p, want the rows' own storage at %p", name, got.Rows, got.Cols, &got.Data[0], &rows[0][0])
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := toMatrix(name, rows, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: toMatrix makes %v allocations, want at most 1 (no copy)", name, allocs)
		}
	}
}

// TestToMatrixCopiesOtherLayouts checks that rows which are not
// consecutive windows of one slice (strided, overlapping, reordered,
// clipped to their own length, or ragged) are copied, and that every
// layout gives the same output bits as independently allocated rows.
func TestToMatrixCopiesOtherLayouts(t *testing.T) {
	const n, d = 40, 16
	eng := newEngine(t, Options{HeadDim: d, Seed: 3})
	rng := rand.New(rand.NewSource(2))
	q := windows(rng, 4, d, d)
	thr, err := eng.Calibrate(1, []Sample{{Q: q, K: windows(rng, n, d, d)}})
	if err != nil {
		t.Fatal(err)
	}
	contiguous := windows(rng, n, d, d)
	reordered := slices.Clone(contiguous)
	reordered[3], reordered[7] = reordered[7], reordered[3]
	clipped := slices.Clone(contiguous)
	for i, r := range clipped {
		clipped[i] = r[:d:d]
	}
	ragged := windows(rng, n, d, d)
	ragged[n-1] = ragged[n-1][:d-1]
	for _, tc := range []struct {
		name string
		rows [][]float32
		view bool
	}{
		{"contiguous", contiguous, true},
		{"strided", windows(rng, n, d, d+3), false},
		{"overlapping", windows(rng, n, d, d-5), false},
		{"reordered", reordered, false},
		{"clipped", clipped, false},
		{"ragged", ragged, false},
	} {
		if got := viewRows(tc.rows) != nil; got != tc.view {
			t.Errorf("%s: viewed %v, want %v", tc.name, got, tc.view)
		}
		before := bits(tc.rows)
		got, err := eng.Attend(q, tc.rows, tc.rows, thr)
		want, wantErr := eng.Attend(q, ownRows(tc.rows), ownRows(tc.rows), thr)
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Errorf("%s: error %v, with own rows %v", tc.name, err, wantErr)
		case err == nil && !sameBits(got.Context, want.Context):
			t.Errorf("%s: output differs from own rows'", tc.name)
		}
		if !slices.EqualFunc(bits(tc.rows), before, slices.Equal[[]uint32]) {
			t.Errorf("%s: Attend wrote its input rows", tc.name)
		}
	}
}

// TestBackendsLeaveRowsUnchanged runs every backend on rows the engine
// reads in place and checks that the caller's rows keep every bit:
// approximate, exact scores and linear scan, quantized, causal,
// blockwise, batched, calibration, evaluation and simulation.
func TestBackendsLeaveRowsUnchanged(t *testing.T) {
	const n, d = 48, 16
	rng := rand.New(rand.NewSource(4))
	q, k, v := windows(rng, 6, d, d), windows(rng, n, d, d), windows(rng, n, d, d)
	cq := windows(rng, n, d, d) // causal queries: one per key
	all := [][][]float32{q, k, v, cq}
	for _, rows := range all {
		if viewRows(rows) == nil {
			t.Fatal("test rows do not qualify for the in-place view")
		}
	}
	var before [][][]uint32
	for _, rows := range all {
		before = append(before, bits(rows))
	}
	for _, quantized := range []bool{false, true} {
		eng := newEngine(t, Options{HeadDim: d, Seed: 5, Quantized: quantized})
		thr, err := eng.Calibrate(1, []Sample{{Q: q, K: k}})
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func() error{
			"approximate": func() error { _, err := eng.Attend(q, k, v, thr); return err },
			"scores":      func() error { _, err := eng.Attend(q, k, v, Exact()); return err },
			"exact":       func() error { _, err := eng.ExactAttention(q, k, v); return err },
			"linear-scan": func() error { _, err := eng.AttendLinearScan(q, k, v); return err },
			"causal":      func() error { _, err := eng.AttendCausal(cq, k, v, thr); return err },
			"blockwise":   func() error { _, err := eng.AttendBlockwise(q, k, v, 16, thr); return err },
			"evaluate":    func() error { _, _, err := eng.Evaluate(q, k, v, thr); return err },
			"simulate":    func() error { _, err := eng.Simulate(q, k, v, thr); return err },
			"batch": func() error {
				_, err := eng.AttendBatch([]BatchOp{
					{Q: q, K: k, V: v},
					{Q: q, K: k, V: v, Overrides: Overrides{Backend: BackendScores}},
					{Q: q, K: k, V: v, Overrides: Overrides{Backend: BackendLinearScan}},
				}, thr, 2)
				return err
			},
		} {
			if err := run(); err != nil {
				t.Fatalf("quantized=%v %s: %v", quantized, name, err)
			}
			for i, rows := range all {
				if !slices.EqualFunc(bits(rows), before[i], slices.Equal[[]uint32]) {
					t.Fatalf("quantized=%v %s wrote its input rows", quantized, name)
				}
			}
		}
	}
}
