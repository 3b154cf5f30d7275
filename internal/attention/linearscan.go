package attention

import (
	"math"

	"elsa/internal/tensor"
)

// This file implements the exact linear-scan attention backend: the
// online-softmax formulation (arXiv 2604.23798) that computes
// O = softmax(scale·Q·Kᵀ)·V in a single streaming pass over the keys with
// O(d) state per query and no n×n score materialization. It is the second
// independent exact implementation in the tree — ExactWithScores is the
// first — and the two cross-check each other in the differential fuzz
// suite within the pinned bound below.
//
// Per query the scan maintains a running maximum m, a rescaled
// sum-of-exponentials s, and a d-wide accumulator a. For each key y with
// logit l_y:
//
//	l_y > m:  r = exp(m − l_y); s = s·r + 1; a = a·r + V_y; m = l_y
//	l_y ≤ m:  w = exp(l_y − m); s += w;      a += w·V_y
//
// After the pass, O_i = a / s. This is algebraically identical to
// two-pass max-subtracted softmax — every weight is exp(l_y − m_final)
// after the rescales compose — so the backend is exact, not approximate.

// Differential bound between the two exact backends. Logits are computed
// bit-identically (same blocked float32 dot product, same float32 scale
// multiply), so divergence comes only from arithmetic order: the scores
// path rounds each softmax weight to float32 and accumulates the weighted
// sum in float32, while the linear scan keeps weights and accumulator in
// float64 until the final store. Both are within ~n·2⁻²⁴ of the true
// value, so their distance is bounded by twice that. Elements are
// compared in float32 ULPs with an absolute floor proportional to the
// value magnitudes in play, because a convex combination of values can
// land arbitrarily close to zero (catastrophic cancellation) where a pure
// ULP distance is unbounded.
const (
	// LinearScanULPBound is the pinned maximum float32 ULP distance
	// between ExactLinearScan and ExactWithScores outputs, for elements
	// large enough that relative error is meaningful.
	LinearScanULPBound = 1024
	// LinearScanAbsTol scales the absolute floor: elements within
	// LinearScanAbsTol·(1 + max|V|) of each other pass regardless of ULP
	// distance. max|V| is the natural scale of the output (a convex
	// combination of value elements never exceeds it).
	LinearScanAbsTol = 2e-4
)

// LinearScanTolerance returns the absolute floor of the differential
// bound for values with maximum magnitude maxAbsV.
func LinearScanTolerance(maxAbsV float64) float64 {
	return LinearScanAbsTol * (1 + maxAbsV)
}

// ULPDiff32 returns the distance between a and b in float32 ULPs — the
// number of representable float32 values strictly between them, plus one
// if they differ. The bit patterns are mapped to a monotone integer line
// (sign-magnitude to offset binary), so the distance is well defined
// across the zero crossing. NaNs and infinities return MaxUint32: the
// exact backends must never produce them, and a saturated distance fails
// any bound loudly.
func ULPDiff32(a, b float32) uint32 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
		math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
		return math.MaxUint32
	}
	ia := int64(ulpIndex(a))
	ib := int64(ulpIndex(b))
	d := ia - ib
	if d < 0 {
		d = -d
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// ulpIndex maps a float32 onto a monotone integer line: 0 sits between
// -0 and +0, positive floats map to their bit pattern, negative floats to
// its negation.
func ulpIndex(f float32) int32 {
	bits := int32(math.Float32bits(f))
	if bits < 0 {
		return int32(math.MinInt32) - bits // -(bits & 0x7fffffff)
	}
	return bits
}

// WithinLinearScanBound reports whether two exact-backend outputs agree
// within the pinned differential bound: LinearScanULPBound ULPs, or the
// absolute floor absTol (from LinearScanTolerance) for elements where
// cancellation makes ULP distance meaningless.
func WithinLinearScanBound(a, b float32, absTol float64) bool {
	if math.Abs(float64(a)-float64(b)) <= absTol {
		return true
	}
	return ULPDiff32(a, b) <= LinearScanULPBound
}

// ExactLinearScan computes the reference self-attention output
// O = softmax(scale·Q·Kᵀ)·V by online softmax: one streaming pass over
// the keys per query, O(d) running state, no n×n score matrix. Shapes
// follow Exact (panics on mismatch). Peak extra memory is the n_q×d
// output plus one d-wide float64 accumulator, against the scores path's
// two n_q×n matrices.
func ExactLinearScan(q, k, v *tensor.Matrix, scale float64) *tensor.Matrix {
	checkShapes(q, k, v)
	out := tensor.New(q.Rows, v.Cols)
	p := &Preprocessed{Keys: k, Values: v}
	acc := make([]float64, v.Cols)
	for i := 0; i < q.Rows; i++ {
		linearScanRow(out.Row(i), q.Row(i), scale, p, nil, acc, nil)
	}
	return out
}

// LinearScanWithExp is ExactLinearScan with a caller-supplied exponential,
// for softmax-approximation ablations (the Samsung cheap-exp study,
// arXiv 2111.10770): exp(x) is only ever called with x ≤ 0.
func LinearScanWithExp(q, k, v *tensor.Matrix, scale float64, exp func(float64) float64) *tensor.Matrix {
	checkShapes(q, k, v)
	out := tensor.New(q.Rows, v.Cols)
	p := &Preprocessed{Keys: k, Values: v}
	acc := make([]float64, v.Cols)
	for i := 0; i < q.Rows; i++ {
		linearScanRow(out.Row(i), q.Row(i), scale, p, nil, acc, exp)
	}
	return out
}

// PreprocessExact stages keys and values for an exact backend: the same
// shape/finiteness validation and input quantization as Preprocess, but no
// hashing and no norms — exact backends never consult the filter. The
// returned Preprocessed serves AttendLinearScanWith, and AttendWith at
// ExactThresholdNoApprox, with bit-identical at-rest K/V to what
// Preprocess would have stored; it must not be fed to the filter at any
// other threshold (it has no hash arena).
func (e *Engine) PreprocessExact(keys, values *tensor.Matrix) (*Preprocessed, error) {
	keys, values, err := e.stageKV(keys, values)
	if err != nil {
		return nil, err
	}
	return &Preprocessed{Keys: keys, Values: values}, nil
}

// AttendLinearScanWith runs the exact linear-scan backend over a
// Preprocessed prefix inside the caller's workspace: every query row
// attends all n keys (cold prefix included — rows decode through the
// workspace's cold buffers) and the returned Result is workspace-owned,
// so a steady-state call performs zero heap allocations. The hash filter
// is bypassed entirely: CandidateCounts[i] = n for every query,
// Candidates stays nil (materializing per-row index lists of every key
// would defeat the backend's memory ceiling), and FallbackQueries is 0.
//
// The backend is float-exact regardless of Config.Quantized: queries are
// staged through the same input quantizer as the filter path (so both
// backends see identical inputs), but exponentials and accumulation use
// float64, not the LUT units — it is an oracle, not a hardware model.
func (e *Engine) AttendLinearScanWith(ws *Workspace, q *tensor.Matrix, p *Preprocessed) (*Result, error) {
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	qm := ws.stageQuery(e, q)
	res := ws.result(q.Rows, e.cfg.D)
	n := p.N()
	acc := ws.acc[:e.cfg.D]
	for i := 0; i < qm.Rows; i++ {
		linearScanRow(res.Output.Row(i), qm.Row(i), e.cfg.Scale, p, ws, acc, nil)
		res.CandidateCounts[i] = n
	}
	res.TotalCandidates = qm.Rows * n
	return res, nil
}

// scanTile is how many keys linearScanRow scores before applying them to
// the accumulator in one pass.
const scanTile = 32

// linearScanRow computes one query's exact attention output over all n
// keys of p in a single pass. Logits are produced bit-identically to
// ExactWithScores — the same four-accumulator float32 dot product
// (tensor.Dot, tensor.DotRows and tensor.MatMulT share their summation
// order by construction) followed by the same float32 scale multiply — so
// the differential bound above is purely about downstream arithmetic
// order.
// ws supplies the cold-prefix decode buffers and may be nil when p has no
// cold prefix; acc is the caller's d-wide float64 accumulator. exp is the
// exponential; nil selects math.Exp through tensor.ExpInto.
//
// Keys go in tiles of scanTile: the tile's dot products come from one
// scoreKeys call. A first pass over the tile tracks the running max and
// writes each key's exponent argument: m - l for a key that raises the
// max, l - m for one that does not. One exp pass over the tile follows,
// then a second pass folds the factors into sum key by key and
// addScanTile applies the tile to acc. Each accumulator element sees the
// same rescales and additions in the same key order as a key-at-a-time
// scan, and every exponential gets the argument the key-at-a-time scan
// gives it.
// Cold-prefix keys decode into one scratch row each, so they form
// one-key tiles.
func linearScanRow(out []float32, qrow []float32, scale float64, p *Preprocessed, ws *Workspace, acc []float64, exp func(float64) float64) {
	acc = acc[:len(out)]
	for j := range acc {
		acc[j] = 0
	}
	m := math.Inf(-1)
	sum := 0.0
	n, cn := p.N(), p.Cold.N()
	scale32 := float32(scale)
	// w[t] is key t's weight in the running frame; r[t] is the factor the
	// state is rescaled by before the key is added (1: no rescale). x[t]
	// holds the key's exponent argument and then its exponential, and
	// kind[t] says which of w and r that is.
	const (
		weight  = iota // w = exp(l - m)
		rescale        // r = exp(m_old - l), w = 1
		first          // the first key: the state is empty, r = w = 1
	)
	var w, r, x [scanTile]float64
	var kind [scanTile]uint8
	var ys [scanTile]int
	var dots [scanTile]float32
	for y0 := 0; y0 < n; {
		y1 := min(y0+scanTile, n)
		if y0 < cn {
			y1 = y0 + 1
		}
		nt := y1 - y0
		for t := range ys[:nt] {
			ys[t] = y0 + t
		}
		scoreKeys(dots[:nt], qrow, ys[:nt], p, ws)
		for t, dot := range dots[:nt] {
			if scale != 1 {
				dot *= scale32
			}
			l := float64(dot)
			switch {
			case l > m && math.IsInf(m, -1):
				kind[t], x[t], m = first, 0, l
			case l > m:
				kind[t], x[t], m = rescale, m-l, l
			default:
				kind[t], x[t] = weight, l-m
			}
		}
		if exp == nil {
			tensor.ExpInto(x[:nt], x[:nt])
		} else {
			for t := range x[:nt] {
				if kind[t] != first {
					x[t] = exp(x[t])
				}
			}
		}
		for t := range x[:nt] {
			r[t], w[t] = 1, 1
			switch kind[t] {
			case rescale:
				r[t] = x[t]
				sum *= r[t]
			case weight:
				w[t] = x[t]
			}
			sum += w[t]
		}
		if y0 < cn {
			addScanTile(acc, w[:1], r[:1], p.valueRow(y0, ws))
		} else {
			d := len(acc)
			addScanTile(acc, w[:nt], r[:nt], p.Values.Data[(y0-cn)*d:(y1-cn)*d])
		}
		y0 = y1
	}
	inv := 1 / sum
	for j := range out {
		out[j] = float32(acc[j] * inv)
	}
}

// addScanTile applies a tile of keys to the accumulator: for each key t in
// order, acc[j] = acc[j]·r[t] (skipped when r[t] is 1, which leaves every
// value unchanged) and then acc[j] += w[t]·V_t[j], with V_t the t-th
// d-wide row of vals. Where the CPU has AVX2, scanTileAVX2 applies the
// first d - d mod 4 columns; the Go loops below apply the rest, or every
// column elsewhere. They hold the sums of 8 columns at a time in registers
// across the tile; the d mod 8 columns left over accumulate in acc
// directly. Each product is converted to float64 on its own, so no
// compiler may fuse it into the add.
func addScanTile(acc []float64, w, r []float64, vals []float32) {
	d := len(acc)
	r = r[:len(w)]
	vals = vals[:len(w)*d]
	j := 0
	if tensor.HasAVX2 && d >= 4 && len(w) > 0 {
		j = d &^ 3
		scanTileAVX2(&acc[0], j, &w[0], &r[0], &vals[0], len(w), d)
	}
	for ; j+8 <= d; j += 8 {
		a := acc[j : j+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		for t, wt := range w {
			if rt := r[t]; rt != 1 {
				a0 *= rt
				a1 *= rt
				a2 *= rt
				a3 *= rt
				a4 *= rt
				a5 *= rt
				a6 *= rt
				a7 *= rt
			}
			off := t*d + j
			v := vals[off : off+8]
			a0 += float64(wt * float64(v[0]))
			a1 += float64(wt * float64(v[1]))
			a2 += float64(wt * float64(v[2]))
			a3 += float64(wt * float64(v[3]))
			a4 += float64(wt * float64(v[4]))
			a5 += float64(wt * float64(v[5]))
			a6 += float64(wt * float64(v[6]))
			a7 += float64(wt * float64(v[7]))
		}
		a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	if j == d {
		return
	}
	a := acc[j:]
	for t, wt := range w {
		if rt := r[t]; rt != 1 {
			for k := range a {
				a[k] *= rt
			}
		}
		off := t*d + j
		for k, x := range vals[off : off+len(a)] {
			a[k] += float64(wt * float64(x))
		}
	}
}

// LinearScanFLOPs returns the cost of the linear-scan exact operator: the
// same n²d MACs and n² exponents as the two-pass reference (each key's
// weight is exponentiated exactly once; max-rescales add at most n_q·n
// more in the adversarial ascending-logit order), but with O(d) live
// state per query instead of an n-wide score row.
func LinearScanFLOPs(nq, n, d int) FLOPs {
	return ExactFLOPs(nq, n, d)
}
