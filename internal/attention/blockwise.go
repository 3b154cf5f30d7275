package attention

import (
	"fmt"
	"math"
	"slices"

	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// BlockwiseAttend runs approximate attention over a sequence longer than
// one hardware invocation can hold by decomposing the keys/values into
// blocks of at most blockSize rows. Each block filters its keys as one
// ordinary invocation would, against a cut from its own key-norm maximum,
// and a query's output is the softmax over the union of every block's
// candidates.
//
// §V-E notes ELSA composes with the long-sequence decompositions of
// Longformer/Blockwise/BigBird, which reduce a very large attention to a
// sequence of conventional-sized ones; this function is that composition.
// All K/V are resident, so the keys are preprocessed once and each block's
// filter scans its window of the packed hash arena and norms; the union
// is then scored and summed by the same kernels Attend runs. One block
// therefore gives Attend's output bit for bit, and with the filter
// disabled the result is exactly full-length attention. A query that no
// block selects for falls back to the best approximate key overall.
func (e *Engine) BlockwiseAttend(q, keys, values *tensor.Matrix, blockSize int, t float64) (*Result, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("attention: block size must be positive, got %d", blockSize)
	}
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	p, err := e.Preprocess(keys, values)
	if err != nil {
		return nil, err
	}
	if t == ExactThresholdNoApprox {
		// Every block selects all its keys, so the union is every key.
		return e.Attend(q, p, t)
	}
	// Each block's window of the hash arena and norms, with the norm
	// maximum an invocation over that block alone would compute.
	n, packed := p.Packed.N, p.Packed
	var blocks []Preprocessed
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		blocks = append(blocks, Preprocessed{
			Packed:  &srp.PackedHashes{K: packed.K, W: packed.W, N: hi - lo, Words: packed.Words[lo*packed.W : hi*packed.W]},
			Norms:   p.Norms[lo:hi],
			MaxNorm: slices.Max(p.Norms[lo:hi]),
		})
	}

	ws := e.getWorkspace()
	defer e.putWorkspace(ws)
	qm := ws.stageQuery(e, q)
	res := &Result{
		Output:          tensor.New(q.Rows, e.cfg.D),
		CandidateCounts: make([]int, q.Rows),
	}
	var flat []int
	for i := 0; i < qm.Rows; i++ {
		qrow := qm.Row(i)
		e.HashVectorInto(ws.hashWords, qrow, ws)
		ws.cand = ws.cand[:0]
		for b := range blocks {
			win, from := &blocks[b], len(ws.cand)
			ws.cand, _ = e.selectKeys(ws.hashWords, win, win.Packed.N, t*win.MaxNorm, ws.cand)
			for c := from; c < len(ws.cand); c++ {
				ws.cand[c] += b * blockSize
			}
		}
		if len(ws.cand) == 0 {
			res.FallbackQueries++
			// Nothing exceeds an infinite cut; the scan still finds the
			// best key.
			_, best := e.selectKeys(ws.hashWords, p, n, math.Inf(1), ws.cand)
			ws.cand = append(ws.cand, best)
		}
		res.CandidateCounts[i] = len(ws.cand)
		res.TotalCandidates += len(ws.cand)
		flat = append(flat, ws.cand...)
		e.scoreCandidates(ws, qrow, p)
		e.weightedSum(res.Output.Row(i), ws.cand, ws.scores, p, ws)
	}
	res.Candidates = candidateViews(nil, res.CandidateCounts, flat)
	return res, nil
}
