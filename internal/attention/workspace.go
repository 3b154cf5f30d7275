package attention

import (
	"slices"

	"elsa/internal/fixed"
	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// Workspace holds every per-query scratch buffer the attention hot path
// needs — hash words, Kronecker mode-product intermediates, candidate
// indices, scores, softmax weights, the quantized accumulator — plus a
// reusable Result, so steady-state AttendWith performs zero heap
// allocations. A Workspace is owned by one goroutine at a time; Engines keep
// a sync.Pool of them so Attend, AttendParallel and the serving layer reuse
// warm buffers instead of re-allocating per call.
type Workspace struct {
	// CollectCandidates controls whether AttendWith records the per-query
	// candidate index lists in Result.Candidates. Serving paths that only
	// need Output and the counts can switch it off to skip the flat-arena
	// bookkeeping entirely. NewWorkspace enables it.
	CollectCandidates bool

	// hashWords is the query-hash staging buffer, wordsPerHash long.
	hashWords []uint64
	// projOut receives the float output of a projection batch without a
	// sign kernel before its signs are packed; sized for the largest batch.
	projOut []float32
	// kronScratch is the ping-pong buffer for such a batch's kron.ApplyTo
	// intermediates.
	kronScratch []float32
	// cand, dots, scores and weights are the per-query candidate
	// pipeline; Preprocess also stages its keys' squared norms in dots.
	cand    []int
	dots    []float32
	scores  []float64
	weights []float64
	// acc is the quantized-mode float64 value accumulator, d elements.
	acc []float64
	// coldKey/coldVal receive one dequantized cold-prefix row each, d
	// elements, so attending over a stream's demoted prefix stays
	// allocation-free.
	coldKey, coldVal []float32
	// qq stages the quantized copy of the query matrix so Quantized-mode
	// AttendWith avoids the per-call Clone.
	qq    []float32
	qqMat tensor.Matrix

	// candFlat is the flat candidate arena one attend pass fills;
	// Result.Candidates rows are subslice views into it (or a copy of it).
	candFlat []int

	// res is the Result AttendWith returns, reused across calls. Its Output
	// data, counts and candidate views live in the buffers below.
	res     Result
	outData []float32
	outMat  tensor.Matrix
	counts  []int
	views   [][]int
}

// NewWorkspace allocates a workspace sized for the engine's hash geometry.
// Candidate and score buffers start empty and grow to the key count on first
// use, then stay put.
func NewWorkspace(e *Engine) *Workspace {
	maxK, maxScratch := 0, 0
	for _, p := range e.projs {
		if p.K > maxK {
			maxK = p.K
		}
		if s := p.ScratchLen(); s > maxScratch {
			maxScratch = s
		}
	}
	return &Workspace{
		CollectCandidates: true,
		hashWords:         make([]uint64, srp.WordsPerHash(e.cfg.K)),
		projOut:           make([]float32, maxK),
		kronScratch:       make([]float32, maxScratch),
		acc:               make([]float64, e.cfg.D),
		coldKey:           make([]float32, e.cfg.D),
		coldVal:           make([]float32, e.cfg.D),
	}
}

// getWorkspace takes a workspace from the engine's pool, making a fresh one
// when the pool is empty. Works for any Engine, including ones restored by
// the persistence layer that never ran NewEngine.
func (e *Engine) getWorkspace() *Workspace {
	if ws, ok := e.wsPool.Get().(*Workspace); ok {
		return ws
	}
	return NewWorkspace(e)
}

// putWorkspace returns a workspace to the pool, restoring defaults that a
// caller may have toggled.
func (e *Engine) putWorkspace(ws *Workspace) {
	ws.CollectCandidates = true
	e.wsPool.Put(ws)
}

// stageQuery returns the query matrix the attend loop should read: q itself
// in float mode, or a Q(1,5,3)-quantized copy staged in the workspace's
// reusable buffer in Quantized mode.
func (ws *Workspace) stageQuery(e *Engine, q *tensor.Matrix) *tensor.Matrix {
	if !e.cfg.Quantized {
		return q
	}
	need := len(q.Data)
	if cap(ws.qq) < need {
		ws.qq = make([]float32, need)
	}
	ws.qq = ws.qq[:need]
	copy(ws.qq, q.Data)
	fixed.QKV.QuantizeSlice(ws.qq)
	ws.qqMat = tensor.Matrix{Rows: q.Rows, Cols: q.Cols, Data: ws.qq}
	return &ws.qqMat
}

// dotBuf returns the workspace's float32 scratch resized to n, grown only
// when it is short.
func (ws *Workspace) dotBuf(n int) []float32 {
	ws.dots = slices.Grow(ws.dots[:0], n)[:n]
	return ws.dots
}

// result shapes the workspace-owned Result for rows output rows of width d,
// reusing the backing buffers, and resets its tallies. The returned Result
// is valid until the workspace's next attend call.
func (ws *Workspace) result(rows, d int) *Result {
	need := rows * d
	if cap(ws.outData) < need {
		ws.outData = make([]float32, need)
	}
	ws.outData = ws.outData[:need]
	ws.outMat = tensor.Matrix{Rows: rows, Cols: d, Data: ws.outData}
	if cap(ws.counts) < rows {
		ws.counts = make([]int, rows)
	}
	ws.counts = ws.counts[:rows]
	for i := range ws.counts {
		ws.counts[i] = 0
	}
	ws.res = Result{
		Output:          &ws.outMat,
		CandidateCounts: ws.counts,
	}
	return &ws.res
}

// candidateViews slices flat into per-row views following counts and stores
// them in dst (grown only when rows exceed its capacity).
func candidateViews(dst [][]int, counts []int, flat []int) [][]int {
	if cap(dst) < len(counts) {
		dst = make([][]int, len(counts))
	}
	dst = dst[:len(counts)]
	off := 0
	for i, c := range counts {
		dst[i] = flat[off : off+c : off+c]
		off += c
	}
	return dst
}
