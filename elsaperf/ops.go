package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"elsa"
	"elsa/internal/attention"
	"elsa/internal/tensor"
	"elsa/internal/workload"
)

// Every workload runs one engine configuration: the paper's d = 64 head
// with 64 hash bits. The server child builds the same configuration from
// the request fields, so local replicas are bit-identical to it.
const (
	headDim  = 64
	hashBits = 64
	engSeed  = 1
)

func engineOptions() elsa.Options {
	return elsa.Options{HeadDim: headDim, HashBits: hashBits, Seed: engSeed}
}

func newAttentionEngine() (*attention.Engine, error) {
	return attention.NewEngine(attention.Config{D: headDim, K: hashBits, Seed: engSeed})
}

// opKind is an op's operating point.
type opKind int

const (
	kindP1     opKind = iota // approximate, p = 1
	kindP2                   // approximate, p = 2
	kindScores               // exact, default scores pipeline
	kindLinear               // exact, online-softmax linear scan
)

func (k opKind) String() string {
	return [...]string{"p1", "p2", "exact-scores", "exact-linear-scan"}[k]
}

func (k opKind) approx() bool { return k == kindP1 || k == kindP2 }

func (k opKind) backend() string {
	switch k {
	case kindScores:
		return elsa.BackendScores
	case kindLinear:
		return elsa.BackendLinearScan
	}
	return elsa.BackendAuto
}

// overrides is the op's per-op operating point as the library and the
// client take it.
func (o *op) overrides() elsa.Overrides {
	if o.kind.approx() {
		thr := o.thr
		return elsa.Overrides{Thr: &thr}
	}
	return elsa.Overrides{Backend: o.kind.backend()}
}

// op is one attention invocation, with the references its output is
// checked against. All references are computed before timing starts.
type op struct {
	ds      string
	q, k, v *tensor.Matrix
	kind    opKind
	thr     elsa.Threshold // approximate ops: the pinned operating point

	// want is what the output is checked against: for approximate ops
	// the serial library result, bit for bit; for exact ops the other
	// exact oracle, within the linear-scan bound.
	want *tensor.Matrix
	tol  float64 // absolute floor of the exact-backend bound
	err  float64 // approximate ops: mean 1 − cos of want vs the exact oracle
}

// rows returns row views of m (no copy).
func rows(m *tensor.Matrix) [][]float32 {
	out := make([][]float32, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

func maxAbs(m *tensor.Matrix) float64 {
	var mx float64
	for _, x := range m.Data {
		mx = math.Max(mx, math.Abs(float64(x)))
	}
	return mx
}

// pickRows copies the given rows of m into a new matrix.
func pickRows(m *tensor.Matrix, idx []int) *tensor.Matrix {
	out := tensor.New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// prefix returns a view of m's first n rows.
func prefix(m *tensor.Matrix, n int) *tensor.Matrix {
	return &tensor.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
}

// prepare computes o's reference. eng supplies the expected output of
// approximate ops: the library's own serial Attend at the pinned
// threshold, which every serving and batching path must reproduce bit
// for bit. Only the reference the check needs is kept, so the resident
// harness data stays small next to the engine's.
func (o *op) prepare(eng *elsa.Engine) error {
	scale := attention.DefaultScale(headDim)
	o.tol = attention.LinearScanTolerance(maxAbs(o.v))
	switch o.kind {
	case kindScores:
		o.want = attention.ExactLinearScan(o.q, o.k, o.v, scale)
		return nil
	case kindLinear:
		o.want = attention.Exact(o.q, o.k, o.v, scale)
		return nil
	}
	out, err := eng.Attend(rows(o.q), rows(o.k), rows(o.v), o.thr)
	if err != nil {
		return fmt.Errorf("reference for %s op: %w", o.kind, err)
	}
	m, err := tensor.FromRows(out.Context)
	if err != nil {
		return err
	}
	o.want = m
	ref := attention.Exact(o.q, o.k, o.v, scale)
	var e float64
	for i := 0; i < m.Rows; i++ {
		e += cosErr(m.Row(i), ref.Row(i))
	}
	o.err = e / float64(m.Rows)
	return nil
}

// check compares one reply with o's references and returns "" when it
// passes. Approximate outputs must equal the serial library result bit
// for bit; exact outputs must agree with the other exact oracle within
// attention.WithinLinearScanBound.
func (o *op) check(got [][]float32) string {
	if len(got) != o.q.Rows {
		return fmt.Sprintf("%s op: %d output rows, want %d", o.kind, len(got), o.q.Rows)
	}
	for i, row := range got {
		if len(row) != headDim {
			return fmt.Sprintf("%s op: row %d has %d columns", o.kind, i, len(row))
		}
		if msg := checkRow(o.kind, row, o.want.Row(i), o.tol); msg != "" {
			return fmt.Sprintf("%s op row %d: %s", o.kind, i, msg)
		}
	}
	return ""
}

// checkRow applies the kind's correctness rule to one output row.
func checkRow(kind opKind, got, want []float32, tol float64) string {
	for j := range got {
		if kind.approx() {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				return fmt.Sprintf("element %d = %v, want %v bit for bit", j, got[j], want[j])
			}
		} else if !attention.WithinLinearScanBound(got[j], want[j], tol) {
			return fmt.Sprintf("element %d = %v, exact oracle %v (outside the linear-scan bound)", j, got[j], want[j])
		}
	}
	return ""
}

// calibrate returns the p = 1 and p = 2 thresholds from Engine.Calibrate
// over samples.
func calibrate(eng *elsa.Engine, samples []elsa.Sample) (p1, p2 elsa.Threshold, err error) {
	if p1, err = eng.Calibrate(1, samples); err != nil {
		return
	}
	p2, err = eng.Calibrate(2, samples)
	return
}

// stratifiedLengths returns m lengths from ds's length model spread
// evenly over it, so every seed's pool has nearly the same size mix: it
// draws 8m lengths with SampleLength, sorts them, keeps the median of each
// block of eight and shuffles the result.
func stratifiedLengths(rng *rand.Rand, ds workload.Dataset, m int) []int {
	draws := make([]int, 8*m)
	for i := range draws {
		draws[i] = ds.SampleLength(rng)
	}
	sort.Ints(draws)
	out := make([]int, m)
	for i := range out {
		out[i] = draws[8*i+4]
	}
	rng.Shuffle(m, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// kindPattern returns n operating points in fixed proportions: each run
// of sum(weights) consecutive slots holds weights[k] of kind k, in seeded
// order.
func kindPattern(rng *rand.Rand, n int, weights [4]int) []opKind {
	var cycle []opKind
	for k, w := range weights {
		for i := 0; i < w; i++ {
			cycle = append(cycle, opKind(k))
		}
	}
	out := make([]opKind, 0, n+len(cycle))
	for len(out) < n {
		rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		out = append(out, cycle...)
	}
	return out[:n]
}
