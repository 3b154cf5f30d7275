package attention

import (
	"fmt"

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
				orow[j] += float32(w * vrow[j])
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
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	if q.Rows != p.N() {
		return nil, fmt.Errorf("attention: causal attention needs one query per key (%d vs %d)",
			q.Rows, p.N())
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
			var best int
			ws.cand, best = e.selectKeys(ws.hashWords, p, i+1, t*runningMax, ws.cand[:0])
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
