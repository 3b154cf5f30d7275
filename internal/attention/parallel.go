package attention

import (
	"fmt"
	"runtime"
	"sync"

	"elsa/internal/tensor"
)

// AttendParallel is Attend with the query rows partitioned across worker
// goroutines — the software analogue of replicating the whole
// query-processing pipeline. Results are bit-identical to Attend (each
// query's computation is independent). workers <= 0 selects GOMAXPROCS.
func (e *Engine) AttendParallel(q *tensor.Matrix, p *Preprocessed, t float64, workers int) (*Result, error) {
	if q.Cols != e.cfg.D {
		return nil, fmt.Errorf("attention: query dim %d, engine built for %d", q.Cols, e.cfg.D)
	}
	if err := validateFinite("query matrix", q); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > q.Rows {
		workers = q.Rows
	}
	if workers <= 1 {
		return e.Attend(q, p, t)
	}
	// Quantize the query once (if the engine is quantized) in a lead
	// workspace that also outlives the workers, then partition rows into
	// contiguous chunks. Each worker takes a pooled workspace and writes its
	// output rows and counts directly into the final Result — no sub-Result
	// allocation or copying — while recording its candidate indices in its
	// workspace's flat arena for in-order stitching afterwards.
	lead := e.getWorkspace()
	qm := lead.stageQuery(e, q)
	out := &Result{
		Output:          tensor.New(q.Rows, e.cfg.D),
		CandidateCounts: make([]int, q.Rows),
	}
	type chunk struct {
		lo, hi          int
		ws              *Workspace
		total, fallback int
	}
	size := (q.Rows + workers - 1) / workers
	chunks := make([]chunk, 0, workers)
	for lo := 0; lo < q.Rows; lo += size {
		hi := lo + size
		if hi > q.Rows {
			hi = q.Rows
		}
		chunks = append(chunks, chunk{lo: lo, hi: hi})
	}
	var wg sync.WaitGroup
	for ci := range chunks {
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			c.ws = e.getWorkspace()
			c.ws.candFlat = c.ws.candFlat[:0]
			c.total, c.fallback = e.attendRows(
				c.ws, qm, c.lo, c.hi, p, t, out.Output, out.CandidateCounts, true)
		}(&chunks[ci])
	}
	wg.Wait()

	total := 0
	for _, c := range chunks {
		total += c.total
	}
	flat := make([]int, 0, total)
	for _, c := range chunks {
		flat = append(flat, c.ws.candFlat...)
		out.TotalCandidates += c.total
		out.FallbackQueries += c.fallback
		e.putWorkspace(c.ws)
	}
	out.Candidates = candidateViews(nil, out.CandidateCounts, flat)
	e.putWorkspace(lead)
	return out, nil
}
