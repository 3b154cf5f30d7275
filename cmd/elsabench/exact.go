package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"elsa/internal/attention"
	"elsa/internal/experiments"
	"elsa/internal/tensor"
	"elsa/internal/workload"
)

// ExactRow is one {workload, backend} measurement of the exact attention
// backends: the scores reference (n×n materialization) against the
// linear-scan oracle (online softmax, O(d) state). The rows carry both
// the performance trajectory (batch ns/op, streaming tokens/s) and the
// two properties the backend exists for — a memory ceiling (bytes/op must
// not include an n×n score matrix) and cross-backend agreement within the
// pinned differential bound.
type ExactRow struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	D        int    `json:"d"`
	Backend  string `json:"backend"`
	// BatchNsPerOp times one full batch attend over the instance.
	BatchNsPerOp float64 `json:"batch_ns_per_op"`
	// BytesPerOp is heap allocated per batch attend — the memory-ceiling
	// row: the scores backend allocates Θ(n_q·n), the linear scan O(n_q·d).
	BytesPerOp uint64 `json:"bytes_per_op"`
	// StreamTokensPerSec is decode throughput: tokens appended one by one,
	// each followed by one query over the grown prefix.
	StreamTokensPerSec float64 `json:"stream_tokens_per_sec"`
	// MaxULP is the worst elementwise float32 ULP distance between the two
	// backends' batch outputs on this instance; BoundOK reports whether
	// every element sat inside the pinned differential bound
	// (attention.WithinLinearScanBound). Stamped on both backends' rows.
	MaxULP  uint32 `json:"max_ulp"`
	BoundOK bool   `json:"bound_ok"`
}

// exactWorkloads are the instances the exact family measures: the
// ViT-style patch grid (fixed 196 tokens, 2D locality) and a capped
// long-document prefix (the linear scan's home regime). The cap keeps a
// bench run in seconds; the memory-ceiling gap already spans ~64x at
// n=1024.
func exactWorkloads(opt experiments.Options, d int) []struct {
	name string
	inst workload.Instance
} {
	rng := rand.New(rand.NewSource(opt.Seed))
	longDoc := workload.LongDoc4K
	longDoc.Len = 1024
	return []struct {
		name string
		inst workload.Instance
	}{
		{workload.ViTBase16.Name, workload.ViTBase16.Generate(rng, d)},
		{longDoc.Name, longDoc.Generate(rng, d)},
	}
}

// exactRows measures both exact backends on both workload families.
func exactRows(opt experiments.Options) ([]ExactRow, error) {
	const d = 64
	scale := attention.DefaultScale(d)
	var rows []ExactRow
	for _, w := range exactWorkloads(opt, d) {
		inst := w.inst
		n := inst.RealLen

		// Cross-backend agreement on this instance, stamped on both rows.
		scoresOut, _ := attention.ExactWithScores(inst.Q, inst.K, inst.V, scale)
		scanOut := attention.ExactLinearScan(inst.Q, inst.K, inst.V, scale)
		maxULP, boundOK := exactAgreement(scoresOut, scanOut, inst.V)

		for _, backend := range []string{"scores", "linear-scan"} {
			attend := func() *tensor.Matrix {
				if backend == "scores" {
					out, _ := attention.ExactWithScores(inst.Q, inst.K, inst.V, scale)
					return out
				}
				return attention.ExactLinearScan(inst.Q, inst.K, inst.V, scale)
			}
			ns, bytesPerOp := timeAndAlloc(attend)
			tps, err := exactStreamRate(opt, inst, d, backend)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ExactRow{
				Workload: w.name, N: n, D: d, Backend: backend,
				BatchNsPerOp: ns, BytesPerOp: bytesPerOp,
				StreamTokensPerSec: tps,
				MaxULP:             maxULP, BoundOK: boundOK,
			})
		}
	}
	return rows, nil
}

// exactAgreement compares the two backends' outputs under the pinned
// differential bound.
func exactAgreement(a, b, v *tensor.Matrix) (maxULP uint32, boundOK bool) {
	maxAbsV := 0.0
	for _, x := range v.Data {
		if ax := math.Abs(float64(x)); ax > maxAbsV {
			maxAbsV = ax
		}
	}
	absTol := attention.LinearScanTolerance(maxAbsV)
	boundOK = true
	for i := range a.Data {
		if ulp := attention.ULPDiff32(a.Data[i], b.Data[i]); ulp > maxULP {
			maxULP = ulp
		}
		if !attention.WithinLinearScanBound(a.Data[i], b.Data[i], absTol) {
			boundOK = false
		}
	}
	return maxULP, boundOK
}

// timeAndAlloc runs f repeatedly, returning mean wall ns/op and heap
// bytes allocated per op (single-goroutine TotalAlloc delta).
func timeAndAlloc(f func() *tensor.Matrix) (nsPerOp float64, bytesPerOp uint64) {
	f() // warm-up outside the measurement
	const reps = 3
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(wall.Nanoseconds()) / reps, (ms1.TotalAlloc - ms0.TotalAlloc) / reps
}

// exactStreamRate replays the instance as a decode session: append token
// i, then answer query i over the prefix so far, through the selected
// exact backend. LongDoc instances are causal by construction, so the
// replay matches how a serving session would consume them.
func exactStreamRate(opt experiments.Options, inst workload.Instance, d int, backend string) (float64, error) {
	eng, err := attention.NewEngine(attention.Config{D: d, Seed: opt.Seed})
	if err != nil {
		return 0, err
	}
	st := eng.NewStream(inst.RealLen)
	dst := make([]float32, d)
	start := time.Now()
	for i := 0; i < inst.RealLen; i++ {
		if err := st.Append(inst.K.Row(i), inst.V.Row(i)); err != nil {
			return 0, err
		}
		if backend == "scores" {
			dst, _, err = st.QueryWith(dst, inst.Q.Row(i), attention.ExactThresholdNoApprox)
		} else {
			dst, _, err = st.QueryLinearScan(dst, inst.Q.Row(i))
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(inst.RealLen) / time.Since(start).Seconds(), nil
}

func printExact(rows []ExactRow, opt experiments.Options) error {
	header("exact backends: scores reference vs linear-scan oracle")
	fmt.Printf("%-12s %6s %4s %-12s %12s %12s %10s %8s %6s\n",
		"workload", "n", "d", "backend", "batch-ns/op", "bytes/op", "tokens/s", "max-ulp", "bound")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %4d %-12s %12.0f %12d %10.0f %8d %6v\n",
			r.Workload, r.N, r.D, r.Backend, r.BatchNsPerOp, r.BytesPerOp,
			r.StreamTokensPerSec, r.MaxULP, r.BoundOK)
	}
	fmt.Println("(bytes/op is the memory ceiling: the scores backend materializes n_q x n,")
	fmt.Println(" the linear scan keeps O(d) state per query; max-ulp/bound is the pinned")
	fmt.Println(" differential agreement the fuzz suite enforces elementwise)")

	abl, err := experiments.AblateSoftmaxExp(opt)
	if err != nil {
		return err
	}
	header("ablation: cheap softmax exponential on the linear scan (arXiv 2111.10770)")
	fmt.Printf("%-12s %6s %4s %12s %12s %12s %9s %12s\n",
		"workload", "n", "d", "mean-cosine", "mean-abs", "max-abs", "max-ulp", "worst-exp")
	for _, r := range abl {
		fmt.Printf("%-12s %6d %4d %12.5f %12.2g %12.2g %9d %11.2f%%\n",
			r.Workload, r.N, r.D, r.MeanCosine, r.MeanAbsErr, r.MaxAbsErr, r.MaxULP, 100*r.MaxRelExpErr)
	}
	fmt.Println("(a Schraudolph exponential with a few percent worst error replaces math.Exp")
	fmt.Println(" inside the scan; the normalizer absorbs most of the correlated per-weight")
	fmt.Println(" error, the cosine row is the damage that survives — the LUT-softmax bet")
	fmt.Println(" the literature makes)")
	return nil
}
