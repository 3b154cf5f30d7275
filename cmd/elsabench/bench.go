package main

import (
	"fmt"
	"math/rand"
	"time"

	"elsa"
	"elsa/internal/experiments"
	"elsa/internal/tensor"
	"elsa/internal/workload"
)

// BenchRow is one machine-readable benchmark measurement, written by the
// -json flag so successive PRs can track a BENCH_*.json performance
// trajectory.
type BenchRow struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	D       int     `json:"d"`
	P       float64 `json:"p"`
	// NsPerOp is the measured software Attend wall time per op at this
	// operating point; ExactNsPerOp is the same op with filtering off.
	NsPerOp      float64 `json:"ns_per_op"`
	ExactNsPerOp float64 `json:"exact_ns_per_op"`
	// SoftwareSpeedup is ExactNsPerOp / NsPerOp.
	SoftwareSpeedup float64 `json:"software_speedup"`
	// CandidateFraction is the mean fraction of keys the filter admitted.
	CandidateFraction float64 `json:"candidate_fraction"`
	// SimSpeedup is exact-mode simulated accelerator cycles over
	// approximate-mode cycles for the same op.
	SimSpeedup float64 `json:"sim_speedup"`
	// TokensPerSec is the streaming-decode rate (append + query per token)
	// for the "<dataset>/decode" rows; 0 on one-shot rows.
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
}

// rowsOf converts an internal matrix to the public [][]float32 form.
func rowsOf(m *tensor.Matrix) [][]float32 {
	out := make([][]float32, m.Rows)
	for i := range out {
		out[i] = append([]float32(nil), m.Row(i)...)
	}
	return out
}

// timeAttend measures Attend wall time per op over iters runs.
func timeAttend(eng *elsa.Engine, q, k, v [][]float32, thr elsa.Threshold, iters int) (float64, *elsa.Output, error) {
	out, err := eng.Attend(q, k, v, thr) // warm-up, and the stats sample
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := eng.Attend(q, k, v, thr); err != nil {
			return 0, nil, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), out, nil
}

// benchRows measures the software and simulated operating points that the
// perf trajectory tracks: p = 0 (exact), 1 (conservative) and 2 (moderate)
// on one representative dataset, at n = 256 and the paper's full n = 512.
func benchRows(opt experiments.Options) ([]BenchRow, error) {
	var rows []BenchRow
	for _, size := range []struct {
		n, iters int
	}{{256, 8}, {512, 5}} {
		sized, err := benchRowsAt(opt, size.n, 64, size.iters)
		if err != nil {
			return nil, err
		}
		rows = append(rows, sized...)
	}
	decode, err := benchDecodeRows(opt, 256, 64)
	if err != nil {
		return nil, err
	}
	return append(rows, decode...), nil
}

// benchDecodeRows measures autoregressive streaming decode: a prefilled
// elsa.Stream advanced one token at a time, each step one QueryWith into a
// recycled buffer (the zero-alloc decode path) plus one Append. NsPerOp is
// the per-token step time; TokensPerSec its inverse.
func benchDecodeRows(opt experiments.Options, n, d int) ([]BenchRow, error) {
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	eng, err := elsa.New(elsa.Options{HeadDim: d, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	ds := workload.AllDatasets()[0]
	calib := ds.GenerateLen(rng, d, n)
	prefill := ds.GenerateLen(rng, d, n)
	steps := ds.GenerateLen(rng, d, n) // decode-phase queries and new tokens
	const decodeSteps = 64

	runDecode := func(thr elsa.Threshold) (nsPerTok, candFrac float64, err error) {
		st := eng.NewStream(n + decodeSteps)
		for i := 0; i < n; i++ {
			if err := st.Append(prefill.K.Row(i), prefill.V.Row(i)); err != nil {
				return 0, 0, err
			}
		}
		dst := make([]float32, d)
		if dst, _, err = st.QueryWith(dst, steps.Q.Row(0), thr); err != nil { // warm-up
			return 0, 0, err
		}
		start := time.Now()
		for i := 0; i < decodeSteps; i++ {
			out, stats, err := st.QueryWith(dst, steps.Q.Row(i), thr)
			if err != nil {
				return 0, 0, err
			}
			dst = out
			candFrac += float64(stats.Candidates) / float64(st.Len())
			if err := st.Append(steps.K.Row(i), steps.V.Row(i)); err != nil {
				return 0, 0, err
			}
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		return elapsed / decodeSteps, candFrac / decodeSteps, nil
	}

	var rows []BenchRow
	var exactNs float64
	for _, p := range []float64{0, 1, 2} {
		thr := elsa.Exact()
		if p > 0 {
			if thr, err = eng.Calibrate(p, []elsa.Sample{{Q: rowsOf(calib.Q), K: rowsOf(calib.K)}}); err != nil {
				return nil, err
			}
		}
		ns, frac, err := runDecode(thr)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			exactNs = ns
		}
		rows = append(rows, BenchRow{
			Dataset: ds.Name + "/decode", N: n, D: d, P: p,
			NsPerOp:           ns,
			ExactNsPerOp:      exactNs,
			SoftwareSpeedup:   exactNs / ns,
			CandidateFraction: frac,
			TokensPerSec:      1e9 / ns,
		})
	}
	return rows, nil
}

func benchRowsAt(opt experiments.Options, n, d, iters int) ([]BenchRow, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	eng, err := elsa.New(elsa.Options{HeadDim: d, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	ds := workload.AllDatasets()[0]
	calib := ds.GenerateLen(rng, d, n)
	inst := ds.GenerateLen(rng, d, n)
	q, k, v := rowsOf(inst.Q), rowsOf(inst.K), rowsOf(inst.V)

	exactNs, _, err := timeAttend(eng, q, k, v, elsa.Exact(), iters)
	if err != nil {
		return nil, err
	}
	exactSim, err := eng.Simulate(q, k, v, elsa.Exact())
	if err != nil {
		return nil, err
	}

	rows := []BenchRow{{
		Dataset: ds.Name, N: n, D: d, P: 0,
		NsPerOp: exactNs, ExactNsPerOp: exactNs,
		SoftwareSpeedup: 1, CandidateFraction: 1, SimSpeedup: 1,
	}}
	for _, p := range []float64{1, 2} {
		thr, err := eng.Calibrate(p, []elsa.Sample{{Q: rowsOf(calib.Q), K: rowsOf(calib.K)}})
		if err != nil {
			return nil, err
		}
		ns, out, err := timeAttend(eng, q, k, v, thr, iters)
		if err != nil {
			return nil, err
		}
		sim, err := eng.Simulate(q, k, v, thr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BenchRow{
			Dataset: ds.Name, N: n, D: d, P: p,
			NsPerOp:           ns,
			ExactNsPerOp:      exactNs,
			SoftwareSpeedup:   exactNs / ns,
			CandidateFraction: out.CandidateFraction,
			SimSpeedup:        float64(exactSim.TotalCycles) / float64(sim.TotalCycles),
		})
	}
	return rows, nil
}

func printBench(rows []BenchRow, _ experiments.Options) error {
	header("bench: software ns/op, candidate fraction and simulated speedup")
	fmt.Printf("%-20s %5s %5s %5s %12s %10s %11s %11s %10s\n",
		"dataset", "n", "d", "p", "ns/op", "sw-speedup", "cand-frac", "sim-speedup", "tokens/s")
	for _, r := range rows {
		tokens := "-"
		if r.TokensPerSec > 0 {
			tokens = fmt.Sprintf("%.0f", r.TokensPerSec)
		}
		fmt.Printf("%-20s %5d %5d %5.1f %12.0f %9.2fx %10.1f%% %10.2fx %10s\n",
			r.Dataset, r.N, r.D, r.P, r.NsPerOp, r.SoftwareSpeedup,
			100*r.CandidateFraction, r.SimSpeedup, tokens)
	}
	return nil
}
