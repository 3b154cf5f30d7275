package attention

import (
	"fmt"
	"math"

	"elsa/internal/tensor"
)

// ExactCausal computes the causally-masked reference attention: query i
// attends only keys 0..i. Decoder-style models (SASRec, GPT-family
// generators) use this masking; q, k and v must have equal row counts.
func ExactCausal(q, k, v *tensor.Matrix, scale float64) *tensor.Matrix {
	checkShapes(q, k, v)
	if q.Rows != k.Rows {
		panic(fmt.Sprintf("attention: causal attention needs one query per key (%d vs %d)", q.Rows, k.Rows))
	}
	out := tensor.New(q.Rows, v.Cols)
	scores := make([]float32, k.Rows)
	for i := 0; i < q.Rows; i++ {
		qrow := q.Row(i)
		prefix := scores[:i+1]
		for y := 0; y <= i; y++ {
			prefix[y] = float32(float64(tensor.Dot(qrow, k.Row(y))) * scale)
		}
		tensor.Softmax(prefix)
		orow := out.Row(i)
		for y, w := range prefix {
			vrow := v.Row(y)
			for j := range orow {
				orow[j] += w * vrow[j]
			}
		}
	}
	return out
}

// AttendCausal runs ELSA approximate attention with causal masking: the
// candidate filter for query i only inspects keys 0..i, exactly what the
// hardware's candidate-selection modules do when the host programs a
// per-query key limit. q must have one row per key. The threshold is
// compared against the running prefix maximum key norm, matching the
// norm-computation module's state after ingesting i+1 keys.
func (e *Engine) AttendCausal(q *tensor.Matrix, p *Preprocessed, t float64) (*Result, error) {
	if q.Cols != e.cfg.D {
		return nil, fmt.Errorf("attention: query dim %d, engine built for %d", q.Cols, e.cfg.D)
	}
	if q.Rows != p.N() {
		return nil, fmt.Errorf("attention: causal attention needs one query per key (%d vs %d)",
			q.Rows, p.N())
	}
	if err := validateFinite("query matrix", q); err != nil {
		return nil, err
	}
	ws := e.getWorkspace()
	qm := ws.stageQuery(e, q)
	res := &Result{
		Output:          tensor.New(q.Rows, e.cfg.D),
		CandidateCounts: make([]int, q.Rows),
	}
	ws.candFlat = ws.candFlat[:0]
	runningMax := 0.0
	// At the exact threshold query i takes every key 0..i, unhashed and
	// unfiltered, as attendRows does for the full sequence.
	exact := t == ExactThresholdNoApprox
	ws.cand = ws.cand[:0]
	for i := 0; i < qm.Rows; i++ {
		qrow := qm.Row(i)
		if exact {
			ws.cand = append(ws.cand, i)
		} else {
			if p.Norms[i] > runningMax {
				runningMax = p.Norms[i]
			}
			e.HashVectorInto(ws.hashWords, qrow, ws)
			cut := t * runningMax
			ws.cand = ws.cand[:0]
			best, bestSim := 0, math.Inf(-1)
			for y := 0; y <= i; y++ {
				sim := e.cosLUT[p.Packed.HammingAt(ws.hashWords, y)] * p.Norms[y]
				if sim > cut {
					ws.cand = append(ws.cand, y)
				}
				if sim > bestSim {
					best, bestSim = y, sim
				}
			}
			if len(ws.cand) == 0 {
				res.FallbackQueries++
				ws.cand = append(ws.cand, best)
			}
		}
		res.CandidateCounts[i] = len(ws.cand)
		res.TotalCandidates += len(ws.cand)
		ws.candFlat = append(ws.candFlat, ws.cand...)
		e.scoreCandidates(ws, qrow, p)
		e.weightedSum(res.Output.Row(i), ws.cand, ws.scores, p, ws)
	}
	flat := append([]int(nil), ws.candFlat...)
	res.Candidates = candidateViews(nil, res.CandidateCounts, flat)
	e.putWorkspace(ws)
	return res, nil
}
