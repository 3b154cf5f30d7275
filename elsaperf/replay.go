package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"elsa"
	"elsa/internal/attention"
	"elsa/internal/elsasim"
	"elsa/internal/srp"
)

// replayStats is what replaying a workload's ops through the library's
// entry points measures: engine phase times (internal/attention), the
// elsa layer's own cost around them, and elsasim's modeled busy cycles
// for the same ops. Replays run after the timed phase, alone, so they do
// not contend with the server.
type replayStats struct {
	ops int

	// Approximate ops, phase by phase.
	approxOps               int
	keys, queries           int
	preNS, hashNS, selectNS float64
	attendNS                float64 // AttendWith: hash + select + score
	candidates, scanned     float64

	// Both exact backends on every op's shapes.
	exactQueries           int
	exactScoresNS, exactLS float64

	// Stream kernels over every op's K/V and queries.
	streamAppends, streamQueries  int
	streamAppendNS, streamQueryNS float64

	// The elsa layer: a one-op AttendBatch minus the engine path it runs.
	batchSelfNS float64

	// Heap bytes the engine path allocates, over allocOps ops.
	allocBytes float64
	allocOps   int

	// elsasim busy cycles of approximate ops.
	simHash, simCand, simAttn float64

	// engineNS is each op's engine-path time (what elsa runs for it).
	engineNS map[*op]float64
}

func newReplayStats() *replayStats { return &replayStats{engineNS: map[*op]float64{}} }

// replayer holds the engines a replay runs through; all share the
// benchmark's engine configuration.
type replayer struct {
	aeng *attention.Engine
	eng  *elsa.Engine
	sim  *elsasim.Simulator
	ws   *attention.Workspace
}

func newReplayer(eng *elsa.Engine) (*replayer, error) {
	aeng, err := newAttentionEngine()
	if err != nil {
		return nil, err
	}
	cfg := elsasim.Default()
	cfg.D, cfg.K = headDim, hashBits
	sim, err := elsasim.New(cfg, aeng)
	if err != nil {
		return nil, err
	}
	return &replayer{aeng: aeng, eng: eng, sim: sim, ws: attention.NewWorkspace(aeng)}, nil
}

func since(t time.Time) float64 { return float64(time.Since(t)) }

// elsasimMaxN is the sequence length the modeled accelerator is sized for
// (elsasim.Default().N); longer ops are not simulated.
const elsasimMaxN = 512

// replayReps is how many times the engine path and the one-op batch are
// timed per op. Their minimums are compared: the elsa layer's own cost is
// well under 1% of an op, far below one timing's run-to-run noise.
const replayReps = 3

// minTime returns the shortest of reps timings of f.
func minTime(reps int, f func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = math.Min(best, since(t))
	}
	return best, nil
}

// threshold is the filter threshold the engine path uses for o.
func (o *op) threshold() float64 {
	if o.kind.approx() {
		return o.thr.T
	}
	return attention.ExactThresholdNoApprox
}

// enginePath runs o the way elsa.Engine does for one batch op, and
// returns the result.
func (r *replayer) enginePath(o *op) (*attention.Result, error) {
	if o.kind == kindLinear {
		pre, err := r.aeng.PreprocessExact(o.k, o.v)
		if err != nil {
			return nil, err
		}
		return r.aeng.AttendLinearScanWith(r.ws, o.q, pre)
	}
	pre, err := r.aeng.Preprocess(o.k, o.v)
	if err != nil {
		return nil, err
	}
	return r.aeng.AttendWith(r.ws, o.q, pre, o.threshold())
}

// replay measures every op in ops once through each entry point and adds
// the figures to st.
func (r *replayer) replay(ops []*op, st *replayStats) error {
	words := make([]uint64, srp.WordsPerHash(hashBits))
	cand := make([]int, 0, 512)
	dst := make([]float32, headDim)
	for _, o := range ops {
		st.ops++
		n, nq := o.k.Rows, o.q.Rows

		// Engine path, then the same op through a one-op AttendBatch: the
		// difference is the elsa layer's conversion, validation and
		// fan-out.
		eng, err := minTime(replayReps, func() error {
			_, err := r.enginePath(o)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %s op: %w", o.kind, err)
		}
		st.engineNS[o] = eng
		bop := elsa.BatchOp{Q: rows(o.q), K: rows(o.k), V: rows(o.v), Overrides: o.overrides()}
		batch, err := minTime(replayReps, func() error {
			_, err := r.eng.AttendBatch([]elsa.BatchOp{bop}, elsa.Exact(), 1)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %s batch op: %w", o.kind, err)
		}
		st.batchSelfNS += batch - eng

		// Both exact backends.
		t := time.Now()
		pre, err := r.aeng.Preprocess(o.k, o.v)
		if err == nil {
			_, err = r.aeng.AttendWith(r.ws, o.q, pre, attention.ExactThresholdNoApprox)
		}
		st.exactScoresNS += since(t)
		t = time.Now()
		if err == nil {
			var preL *attention.Preprocessed
			if preL, err = r.aeng.PreprocessExact(o.k, o.v); err == nil {
				_, err = r.aeng.AttendLinearScanWith(r.ws, o.q, preL)
			}
		}
		st.exactLS += since(t)
		if err != nil {
			return fmt.Errorf("replay exact backends: %w", err)
		}
		st.exactQueries += nq

		// Stream kernels: append the op's K/V token by token, then decode
		// each query over the whole prefix at the op's operating point.
		s := r.aeng.NewStream(n)
		t = time.Now()
		for i := 0; i < n; i++ {
			if err := s.Append(o.k.Row(i), o.v.Row(i)); err != nil {
				return fmt.Errorf("replay stream append: %w", err)
			}
		}
		st.streamAppendNS += since(t)
		st.streamAppends += n
		t = time.Now()
		for i := 0; i < nq; i++ {
			if o.kind == kindLinear {
				dst, _, err = s.QueryLinearScan(dst, o.q.Row(i))
			} else {
				dst, _, err = s.QueryWith(dst, o.q.Row(i), o.threshold())
			}
			if err != nil {
				return fmt.Errorf("replay stream query: %w", err)
			}
		}
		st.streamQueryNS += since(t)
		st.streamQueries += nq

		if !o.kind.approx() {
			continue
		}
		// Approximate ops, phase by phase.
		st.approxOps++
		t = time.Now()
		pre, err = r.aeng.Preprocess(o.k, o.v)
		if err != nil {
			return fmt.Errorf("replay preprocess: %w", err)
		}
		st.preNS += since(t)
		st.keys += n
		t = time.Now()
		for i := 0; i < nq; i++ {
			r.aeng.HashVectorInto(words, o.q.Row(i), r.ws)
		}
		st.hashNS += since(t)
		hashes := make([]srp.BitVec, nq)
		for i := range hashes {
			hashes[i] = r.aeng.HashVector(o.q.Row(i))
		}
		t = time.Now()
		for i := 0; i < nq; i++ {
			cand = r.aeng.SelectCandidates(hashes[i], pre, o.thr.T, cand[:0])
			st.candidates += float64(len(cand))
		}
		st.selectNS += since(t)
		st.scanned += float64(n * nq)
		t = time.Now()
		if _, err := r.aeng.AttendWith(r.ws, o.q, pre, o.thr.T); err != nil {
			return fmt.Errorf("replay attend: %w", err)
		}
		st.attendNS += since(t)
		st.queries += nq

		if n <= elsasimMaxN {
			res, err := r.sim.Run(o.q, o.k, o.v, o.thr.T)
			if err != nil {
				return fmt.Errorf("replay elsasim: %w", err)
			}
			st.simHash += float64(res.HashBusy)
			st.simCand += float64(res.CandBusy)
			st.simAttn += float64(res.AttnBusy + res.DivBusy)
		}
	}

	// Allocation per op on the engine path, in one pass so the
	// MemStats reads (which stop the world) stay out of the timings.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range ops {
		if _, err := r.enginePath(o); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	st.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	st.allocOps += len(ops)
	return nil
}

// layerMetrics turns the replay into the per-layer engine metrics.
func (st *replayStats) layerMetrics(m map[string]float64) {
	div := func(a float64, b int) float64 {
		if b == 0 {
			return 0
		}
		return a / float64(b)
	}
	score := st.attendNS - st.hashNS - st.selectNS
	m["attention.preprocess_ns_per_key"] = div(st.preNS, st.keys)
	m["attention.hash_ns_per_query"] = div(st.hashNS, st.queries)
	m["attention.select_ns_per_query"] = div(st.selectNS, st.queries)
	m["attention.score_ns_per_query"] = div(score, st.queries)
	m["attention.exact_ns_per_query.scores"] = div(st.exactScoresNS, st.exactQueries)
	m["attention.exact_ns_per_query.linear-scan"] = div(st.exactLS, st.exactQueries)
	m["attention.stream_append_ns"] = div(st.streamAppendNS, st.streamAppends)
	m["attention.stream_query_ns"] = div(st.streamQueryNS, st.streamQueries)
	m["attention.candidate_frac"] = ratio(st.candidates, st.scanned)
	m["attention.alloc_bytes_per_op"] = div(st.allocBytes, st.allocOps)
	m["elsa.batch_self_ms"] = div(st.batchSelfNS, st.ops) / 1e6
	sim := st.simHash + st.simCand + st.simAttn
	m["elsasim.hash_share"] = ratio(st.simHash, sim)
	m["elsasim.select_share"] = ratio(st.simCand, sim)
	m["elsasim.attend_share"] = ratio(st.simAttn, sim)
}

// phaseTable renders measured engine phase shares next to elsasim's
// modeled busy-cycle shares for the same approximate ops: the software
// counterpart of the paper's per-module breakdown.
func (st *replayStats) phaseTable() []string {
	score := st.attendNS - st.hashNS - st.selectNS
	meas := st.preNS + st.attendNS
	sim := st.simHash + st.simCand + st.simAttn
	row := func(name string, m, s float64) string {
		return fmt.Sprintf("phase %-22s measured %6.1f%%   modeled %6.1f%%", name, 100*ratio(m, meas), 100*ratio(s, sim))
	}
	return []string{
		fmt.Sprintf("phase table over %d approximate ops (%d keys, %d queries); modeled = elsasim busy cycles", st.approxOps, st.keys, st.queries),
		row("hash keys+queries", st.preNS+st.hashNS, st.simHash),
		fmt.Sprintf("phase   %-20s measured %6.1f%%", "(hash keys)", 100*ratio(st.preNS, meas)),
		fmt.Sprintf("phase   %-20s measured %6.1f%%", "(hash queries)", 100*ratio(st.hashNS, meas)),
		row("select", st.selectNS, st.simCand),
		row("score+softmax+sum", score, st.simAttn),
	}
}
