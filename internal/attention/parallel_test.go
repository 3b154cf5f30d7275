package attention

import (
	"math/rand"
	"testing"

	"elsa/internal/tensor"
)

func TestAttendParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	e := newTestEngine(t, Config{D: 16, Seed: 40})
	q, k, v, _ := clustered(rng, 33, 50, 16, 1.5)
	pre, err := e.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, thr := range []float64{ExactThresholdNoApprox, 0.15, 10} {
		serial, err := e.Attend(q, pre, thr)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 5, 64} {
			par, err := e.AttendParallel(q, pre, thr, workers)
			if err != nil {
				t.Fatal(err)
			}
			if tensor.MaxAbsDiff(serial.Output, par.Output) != 0 {
				t.Fatalf("thr=%g workers=%d: outputs differ", thr, workers)
			}
			if par.TotalCandidates != serial.TotalCandidates ||
				par.FallbackQueries != serial.FallbackQueries {
				t.Fatalf("thr=%g workers=%d: stats differ", thr, workers)
			}
			for i := range serial.CandidateCounts {
				if par.CandidateCounts[i] != serial.CandidateCounts[i] {
					t.Fatalf("thr=%g workers=%d: per-query counts differ at %d", thr, workers, i)
				}
			}
		}
	}
}

// TestAttendParallelRaggedChunks pins the stitching on row counts that do
// not divide evenly across workers (the final chunk is short) and on more
// workers than rows (workers are clamped and every chunk is one row),
// including full per-query candidate-list equality.
func TestAttendParallelRaggedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	e := newTestEngine(t, Config{D: 16, Seed: 44})
	for _, tc := range []struct {
		rows    int
		workers []int
	}{
		{rows: 7, workers: []int{2, 3, 4, 6}},   // ragged: 7 rows never divide evenly
		{rows: 5, workers: []int{5, 6, 9, 100}}, // workers >= rows
		{rows: 1, workers: []int{2, 8}},         // degenerate single row
	} {
		q, k, v, _ := clustered(rng, tc.rows, 40, 16, 1.5)
		pre, err := e.Preprocess(k, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, thr := range []float64{ExactThresholdNoApprox, 0.15, 10} {
			serial, err := e.Attend(q, pre, thr)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range tc.workers {
				par, err := e.AttendParallel(q, pre, thr, workers)
				if err != nil {
					t.Fatal(err)
				}
				if tensor.MaxAbsDiff(serial.Output, par.Output) != 0 {
					t.Fatalf("rows=%d thr=%g workers=%d: outputs differ", tc.rows, thr, workers)
				}
				if par.TotalCandidates != serial.TotalCandidates ||
					par.FallbackQueries != serial.FallbackQueries {
					t.Fatalf("rows=%d thr=%g workers=%d: stats differ", tc.rows, thr, workers)
				}
				if len(par.Candidates) != len(serial.Candidates) {
					t.Fatalf("rows=%d thr=%g workers=%d: candidate row count differs", tc.rows, thr, workers)
				}
				for i := range serial.Candidates {
					if len(par.Candidates[i]) != len(serial.Candidates[i]) {
						t.Fatalf("rows=%d thr=%g workers=%d: query %d candidate count differs",
							tc.rows, thr, workers, i)
					}
					for j := range serial.Candidates[i] {
						if par.Candidates[i][j] != serial.Candidates[i][j] {
							t.Fatalf("rows=%d thr=%g workers=%d: query %d candidate %d differs",
								tc.rows, thr, workers, i, j)
						}
					}
				}
			}
		}
	}
}

func TestAttendParallelValidation(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 41})
	rng := rand.New(rand.NewSource(41))
	k := tensor.RandomNormal(rng, 8, 16)
	pre, err := e.Preprocess(k, k.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AttendParallel(tensor.New(2, 8), pre, 0, 2); err == nil {
		t.Error("wrong query dim should error")
	}
}
