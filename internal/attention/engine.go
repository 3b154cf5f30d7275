package attention

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"elsa/internal/fixed"
	"elsa/internal/kron"
	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// Config parameterizes an approximate-attention Engine. Zero values select
// the paper's defaults where meaningful.
type Config struct {
	// D is the head dimension (paper: 64). Required.
	D int
	// K is the hash width in bits. Defaults to D, the paper's
	// recommendation (§IV-E).
	K int
	// KronShapes lists the Kronecker factor shapes for each full d→d hash
	// projection batch, outermost first. Defaults to kron.StandardShapes(D)
	// — the (4×4)^⊗3 configuration for d = 64. Set to [][2]int{{D, D}} for
	// an unstructured dense projection (ablation). When K > D, ceil(K/D)
	// batches of orthogonal vectors are stacked (super-bit, §IV-E); a
	// partial final batch always uses a dense (K mod D)×D projection.
	KronShapes [][2]int
	// BiasPercentile is the percentile of the raw angular-estimate error
	// subtracted as θ_bias. Defaults to srp.DefaultBiasPercentile (80).
	BiasPercentile float64
	// BiasSamples is the sample count for θ_bias calibration. Default 2000.
	BiasSamples int
	// Scale is the softmax scale; defaults to 1/√D (scaled dot-product
	// attention). Set to 1 for unscaled models.
	Scale float64
	// Quantized enables hardware-accurate numerics: Q(1,5,3) inputs,
	// LUT exponent/reciprocal/sqrt units, EFloat accumulator rounding.
	Quantized bool
	// Seed drives all randomness (projection factors, bias calibration).
	Seed int64
}

func (c *Config) setDefaults() error {
	if c.D < 1 {
		return fmt.Errorf("attention: config requires D >= 1, got %d", c.D)
	}
	if c.K == 0 {
		c.K = c.D
	}
	if c.K < 1 {
		return fmt.Errorf("attention: config requires K >= 1, got %d", c.K)
	}
	if len(c.KronShapes) == 0 {
		c.KronShapes = kron.StandardShapes(c.D)
	}
	if c.BiasPercentile == 0 {
		c.BiasPercentile = srp.DefaultBiasPercentile
	}
	if c.BiasSamples == 0 {
		c.BiasSamples = 2000
	}
	if c.Scale == 0 {
		c.Scale = DefaultScale(c.D)
	}
	return nil
}

// Engine performs ELSA approximate self-attention. It is immutable after
// construction and safe for concurrent use.
type Engine struct {
	cfg Config
	// projs are the hash projection batches: full d→d Kronecker batches
	// followed by an optional partial dense batch, totalling K rows.
	projs []*kron.Projection
	bias  float64
	// cosLUT is the hardware's (k+1)-entry lookup table (§IV-C): entry h
	// holds cos(max(0, π·h/k − θ_bias)). The approximate similarity is a
	// deterministic function of the Hamming distance, so the table is
	// exact, not an approximation.
	cosLUT []float64
	expU   *fixed.ExpUnit
	recpU  *fixed.RecipUnit
	sqrtU  *fixed.SqrtUnit
	// wsPool recycles Workspaces across Attend/Preprocess calls and across
	// the serving layer's concurrent requests.
	wsPool sync.Pool
}

// NewEngine builds an engine: it draws the Kronecker-structured orthogonal
// hash projection batches and calibrates θ_bias on synthetic normal
// vectors, both seeded from cfg.Seed.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var projs []*kron.Projection
	for remaining := cfg.K; remaining > 0; {
		var p *kron.Projection
		var err error
		if remaining >= cfg.D {
			p, err = kron.NewRandomOrthogonal(rng, cfg.KronShapes...)
			if err == nil && (p.D != cfg.D || p.K != cfg.D) {
				err = fmt.Errorf("attention: kron shapes produce %d->%d projection, want %d->%d",
					p.D, p.K, cfg.D, cfg.D)
			}
			remaining -= cfg.D
		} else {
			p, err = kron.NewRandomOrthogonal(rng, [2]int{remaining, cfg.D})
			remaining = 0
		}
		if err != nil {
			return nil, err
		}
		projs = append(projs, p)
	}
	cal, err := srp.CalibrateBias(cfg.D, cfg.K, srp.Orthogonal, cfg.BiasPercentile, cfg.BiasSamples, rng)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		projs:  projs,
		bias:   cal.Bias,
		cosLUT: newCosLUT(cfg.K, cal.Bias),
		expU:   fixed.NewExpUnit(),
		recpU:  fixed.NewRecipUnit(),
		sqrtU:  fixed.NewSqrtUnit(),
	}
	return e, nil
}

// CosLUT returns the candidate-selection lookup table: entry h is
// cos(max(0, π·h/k − θ_bias)), the value the hardware multiplies by
// ‖K_y‖. The returned slice must not be mutated.
func (e *Engine) CosLUT() []float64 { return e.cosLUT }

// Config returns the resolved configuration (defaults filled in).
func (e *Engine) Config() Config { return e.cfg }

// Bias returns the calibrated θ_bias.
func (e *Engine) Bias() float64 { return e.bias }

// HashMuls is the multiplication count of one full hash computation across
// all projection batches (768 = 3·d^{4/3} for the default d = k = 64
// configuration); the hardware simulator divides it by m_h for the hash
// module's cycle count.
func (e *Engine) HashMuls() int {
	total := 0
	for _, p := range e.projs {
		total += p.MulCount()
	}
	return total
}

// HashVector computes the k-bit sign hash of x through the Kronecker fast
// path: each batch costs its factor mode-products (768 multiplications for
// the (4×4)^⊗3, d = 64 configuration) instead of k·d.
func (e *Engine) HashVector(x []float32) srp.BitVec {
	out := srp.NewBitVec(e.cfg.K)
	ws := e.getWorkspace()
	e.HashVectorInto(out.Words, x, ws)
	e.putWorkspace(ws)
	return out
}

// HashVectorInto computes the k-bit sign hash of x into dst, which must
// hold srp.WordsPerHash(k) words (it is zeroed first). With a workspace the
// call performs no heap allocation. ws may be nil, at the cost of scratch
// allocations.
func (e *Engine) HashVectorInto(dst []uint64, x []float32, ws *Workspace) {
	for i := range dst {
		dst[i] = 0
	}
	e.hashRows(dst, x, ws)
}

// hashRows writes the hash of each row of xs, a row-major n×D matrix,
// into dst, srp.WordsPerHash(k) words per row, which must be zero on
// entry. A (4×4)^⊗3 batch with a sign kernel writes its word of every row
// through kron.SignWords; every other batch runs kron.ApplyTo against the
// workspace's scratch and packs the signs. The kernel writes whole words,
// so it needs its batch to start on a word boundary. NewEngine puts the
// full batches first, so they always do, but a restored State may order
// its batches otherwise.
func (e *Engine) hashRows(dst []uint64, xs []float32, ws *Workspace) {
	if len(xs) == 0 {
		return
	}
	w, d := srp.WordsPerHash(e.cfg.K), e.cfg.D
	bit := 0
	for _, p := range e.projs {
		if p.SignKernel() && bit%64 == 0 {
			p.SignWords(dst[bit/64:], w, xs)
			bit += p.K
			continue
		}
		if ws == nil {
			ws = NewWorkspace(e)
		}
		out := ws.projOut[:p.K]
		for i := 0; i*d < len(xs); i++ {
			p.ApplyTo(out, xs[i*d:(i+1)*d], ws.kronScratch)
			srp.PackSigns(dst[i*w:(i+1)*w], bit, out)
		}
		bit += p.K
	}
}

// Preprocessed holds the per-key state computed once per attention
// invocation (§III-D preprocessing): key hashes, key norms, the maximum
// norm, and the (possibly quantized) key/value matrices.
//
// Key hashes live in Packed, one contiguous []uint64 arena mirroring the
// accelerator's hash-memory SRAM, so candidate selection streams sequential
// words instead of chasing one heap allocation per key.
type Preprocessed struct {
	Keys, Values *tensor.Matrix
	Packed       *srp.PackedHashes
	Norms        []float64
	MaxNorm      float64
	// Cold, when non-nil, holds the demoted oldest rows of a stream's
	// K/V storage in the bit-packed Q(1,5,3) representation; Keys/Values
	// then hold only the hot tail. Packed and Norms always span the full
	// logical sequence (cold + hot), so candidate selection is oblivious
	// to the split.
	Cold *ColdPrefix
}

// N returns the number of keys (cold prefix included).
func (p *Preprocessed) N() int { return p.Cold.N() + p.Keys.Rows }

// validateFinite rejects NaN/Inf inputs: they would silently corrupt
// norms, hashes and softmax sums deep inside the pipeline, so the engine
// fails fast at the boundary instead. x·0 is ±0 for every finite x and NaN
// for ±Inf and NaN, and a NaN survives every later add, so the sum of x·0
// over the matrix is zero exactly when every element is finite. Where the
// CPU has AVX2, finiteAVX2 sums the first len - len mod 32 elements; the
// loop below sums the rest, or every element elsewhere. Neither branches
// per element, and the loop's four sums keep each add from waiting on the
// one before.
func validateFinite(name string, m *tensor.Matrix) error {
	d := m.Data
	var s0, s1, s2, s3 float32
	if n := len(d) &^ 31; tensor.HasAVX2 && n > 0 {
		s0 = finiteAVX2(&d[0], n)
		d = d[n:]
	}
	for ; len(d) >= 4; d = d[4:] {
		s0 += d[0] * 0
		s1 += d[1] * 0
		s2 += d[2] * 0
		s3 += d[3] * 0
	}
	for _, v := range d {
		s0 += v * 0
	}
	if s0+s1+s2+s3 != 0 {
		return fmt.Errorf("attention: %s contains a non-finite value", name)
	}
	return nil
}

// Preprocess hashes every key and computes key norms. In Quantized mode the
// key and value matrices are first rounded to the Q(1,5,3) input format and
// norms pass through the tabulate-and-multiply square-root unit, mirroring
// the accelerator's norm-computation module (§IV-C(3): the norms are stored
// in the 8-bit key-norm SRAM format, "n bytes assuming an 8-bit
// representation").
func (e *Engine) Preprocess(keys, values *tensor.Matrix) (*Preprocessed, error) {
	keys, values, err := e.stageKV(keys, values)
	if err != nil {
		return nil, err
	}
	n := keys.Rows
	p := &Preprocessed{
		Keys:   keys,
		Values: values,
		Packed: srp.NewPackedHashes(e.cfg.K, n),
		Norms:  make([]float64, n),
	}
	ws := e.getWorkspace()
	kd := keys.Data[:n*keys.Cols]
	e.hashRows(p.Packed.Words, kd, ws)
	sqs := ws.dotBuf(n)
	tensor.SelfDots(sqs, kd, keys.Cols)
	for i, sq := range sqs {
		if e.cfg.Quantized {
			p.Norms[i] = normFormat.Quantize(e.sqrtU.Sqrt(float64(sq)))
		} else {
			p.Norms[i] = math.Sqrt(float64(sq))
		}
		if p.Norms[i] > p.MaxNorm {
			p.MaxNorm = p.Norms[i]
		}
	}
	e.putWorkspace(ws)
	return p, nil
}

// stageKV checks K/V shapes and finiteness and, in Quantized mode, returns
// copies rounded to the Q(1,5,3) input format; the caller's matrices are
// never modified.
func (e *Engine) stageKV(keys, values *tensor.Matrix) (*tensor.Matrix, *tensor.Matrix, error) {
	if keys.Cols != e.cfg.D {
		return nil, nil, fmt.Errorf("attention: key dim %d, engine built for %d", keys.Cols, e.cfg.D)
	}
	if values.Rows != keys.Rows || values.Cols != keys.Cols {
		return nil, nil, fmt.Errorf("attention: value shape %dx%d does not match keys %dx%d",
			values.Rows, values.Cols, keys.Rows, keys.Cols)
	}
	if err := validateFinite("key matrix", keys); err != nil {
		return nil, nil, err
	}
	if err := validateFinite("value matrix", values); err != nil {
		return nil, nil, err
	}
	if e.cfg.Quantized {
		keys = keys.Clone()
		values = values.Clone()
		fixed.QKV.QuantizeSlice(keys.Data)
		fixed.QKV.QuantizeSlice(values.Data)
	}
	return keys, values, nil
}

// normFormat is the 8-bit unsigned key-norm storage format: 5 integer and
// 3 fraction bits, matching the Q(1,5,3) element format's magnitude range.
var normFormat = fixed.Format{IntBits: 5, FracBits: 3}

// SelectCandidates returns the indices of keys whose approximate
// (query-normalized) similarity to the hashed query exceeds t·‖K_max‖
// (§III-E). It evaluates exactly what one candidate-selection module does
// per key per cycle: Hamming distance, a cos-LUT read, one multiply by
// ‖K_y‖, one compare. The result is appended to dst to allow reuse across
// queries.
func (e *Engine) SelectCandidates(qHash srp.BitVec, p *Preprocessed, t float64, dst []int) []int {
	cand, _ := e.selectKeys(qHash.Words, p, p.Packed.N, t*p.MaxNorm, dst)
	return cand
}

// selectKeys is the packed-arena candidate scan over keys 0..n-1 of p:
// per key one XOR+POPCNT (per word), a LUT read, a multiply by the key's
// norm and a compare with cut. It appends the keys whose similarity
// exceeds cut to dst, and also returns the key of highest similarity, the
// first on a tie, which a query that selects nothing falls back to; so
// such a query reads the arena once. Every key index is written at the
// output cursor, which advances only when the key passes, so the compare
// needs no branch; dst's spare capacity (grown to n if short) is the
// scratch for that.
//
// A one-word hash (k <= 64) takes four keys per step in selectAVX2 where
// the CPU has AVX2, and the n mod 4 keys left in the loop below; wider
// hashes take the loop below for every key.
func (e *Engine) selectKeys(qWords []uint64, p *Preprocessed, n int, cut float64, dst []int) (cand []int, best int) {
	packed := p.Packed
	norms := p.Norms[:n]
	lut := e.cosLUT
	base := len(dst)
	dst = slices.Grow(dst, n)
	buf := dst[base : base+n]
	bestSim := math.Inf(-1)
	k, y := 0, 0
	if n4 := n &^ 3; packed.W == 1 && tensor.HasAVX2 && n4 > 0 {
		// The kernel reads lut at any Hamming distance of two words,
		// 0..64; newCosLUT leaves the capacity for that.
		var lanes [4]int
		var sims [4]float64
		words := packed.Words[:n4]
		k = selectAVX2(&buf[0], &words[0], qWords[0], &lut[:selectLUTLen][0], &norms[0], cut, n4, &lanes, &sims)
		// Lane l holds the first best of keys l, l+4, …; the first best
		// overall is the lowest such key among the lanes that tie.
		for l, sim := range sims {
			if sim > bestSim || sim == bestSim && lanes[l] < best {
				best, bestSim = lanes[l], sim
			}
		}
		y = n4
	}
	for ; y < n; y++ {
		sim := lut[packed.HammingAt(qWords, y)] * norms[y]
		buf[k] = y
		if sim > cut {
			k++
		}
		if sim > bestSim {
			best, bestSim = y, sim
		}
	}
	return dst[:base+k], best
}

// selectLUTLen is how many cos-LUT entries selectAVX2 may read: one per
// Hamming distance of two 64-bit words.
const selectLUTLen = 65

// newCosLUT returns the (k+1)-entry candidate-selection table for θ_bias
// bias, with capacity for selectLUTLen entries; those past k are zero and
// no valid hash pair reaches them.
func newCosLUT(k int, bias float64) []float64 {
	lut := make([]float64, k+1, max(k+1, selectLUTLen))
	for h := range lut {
		lut[h] = math.Cos(srp.CorrectedAngle(h, k, bias))
	}
	return lut
}

// Result is the outcome of an approximate attention invocation.
type Result struct {
	// Output is the n_q×d attention output.
	Output *tensor.Matrix
	// CandidateCounts[i] is the number of keys selected for query i.
	CandidateCounts []int
	// TotalCandidates is the sum of CandidateCounts.
	TotalCandidates int
	// FallbackQueries counts queries for which the filter selected nothing
	// and the engine fell back to the single best approximate key.
	FallbackQueries int
	// Candidates[i] lists the selected key indices for query i (including
	// the fallback key when the filter came up empty).
	Candidates [][]int
}

// CandidateFraction is the mean fraction of keys inspected per query — the
// bar metric of the paper's Fig 10.
func (r *Result) CandidateFraction(n int) float64 {
	if len(r.CandidateCounts) == 0 || n == 0 {
		return 0
	}
	return float64(r.TotalCandidates) / float64(len(r.CandidateCounts)*n)
}

// Attend runs the full approximate self-attention (§III-D) for every row of
// q against the preprocessed keys with the layer threshold t: hash the
// query, select candidates, compute exact dot products for the candidates
// only, softmax over the candidates, and take the weighted sum of the
// corresponding value rows.
//
// A query whose filter selects no key falls back to the key with the
// highest approximate similarity so the output row is always defined; such
// queries are counted in Result.FallbackQueries.
func (e *Engine) Attend(q *tensor.Matrix, p *Preprocessed, t float64) (*Result, error) {
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	ws := e.getWorkspace()
	qm := ws.stageQuery(e, q)
	res := &Result{
		Output:          tensor.New(q.Rows, e.cfg.D),
		CandidateCounts: make([]int, q.Rows),
	}
	ws.candFlat = ws.candFlat[:0]
	total, fallback := e.attendRows(ws, qm, 0, qm.Rows, p, t, res.Output, res.CandidateCounts, true)
	res.TotalCandidates = total
	res.FallbackQueries = fallback
	// The Result outlives the pooled workspace, so its candidate arena is an
	// owned copy; the per-row lists are views into that one allocation.
	flat := append([]int(nil), ws.candFlat...)
	res.Candidates = candidateViews(nil, res.CandidateCounts, flat)
	e.putWorkspace(ws)
	return res, nil
}

// AttendWith is Attend running entirely inside the caller-provided
// workspace: every scratch buffer and the returned Result (its Output
// matrix, counts and candidate views) belong to ws, so a steady-state call
// performs zero heap allocations. The Result is valid until the next
// Attend/AttendWith call on the same workspace; callers that need it longer
// must copy. Outputs are bit-identical to Attend.
func (e *Engine) AttendWith(ws *Workspace, q *tensor.Matrix, p *Preprocessed, t float64) (*Result, error) {
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	qm := ws.stageQuery(e, q)
	res := ws.result(q.Rows, e.cfg.D)
	ws.candFlat = ws.candFlat[:0]
	collect := ws.CollectCandidates
	total, fallback := e.attendRows(ws, qm, 0, qm.Rows, p, t, res.Output, res.CandidateCounts, collect)
	res.TotalCandidates = total
	res.FallbackQueries = fallback
	if collect {
		ws.views = candidateViews(ws.views, res.CandidateCounts, ws.candFlat)
		res.Candidates = ws.views
	}
	return res, nil
}

// checkQuery validates an incoming query matrix against the engine config.
func (e *Engine) checkQuery(q *tensor.Matrix) error {
	if q.Cols != e.cfg.D {
		return fmt.Errorf("attention: query dim %d, engine built for %d", q.Cols, e.cfg.D)
	}
	return validateFinite("query matrix", q)
}

// attendRows is the shared attend core: it runs the per-query pipeline for
// rows [lo, hi) of qm (already quantized if the engine is), writing output
// row i into out.Row(i) and its candidate count into counts[i]. When collect
// is set the selected indices are appended to ws.candFlat in row order. It
// returns the candidate total and fallback count for the processed rows.
// Attend and AttendWith both route through this one loop, so their
// outputs are bit-identical by construction.
//
// At t = ExactThresholdNoApprox every query's candidates are all keys
// 0..n-1, so the query is not hashed and the filter does not run; p may
// then come from PreprocessExact, which hashes nothing either.
func (e *Engine) attendRows(ws *Workspace, qm *tensor.Matrix, lo, hi int, p *Preprocessed, t float64, out *tensor.Matrix, counts []int, collect bool) (total, fallback int) {
	exact := t == ExactThresholdNoApprox
	if exact {
		ws.cand = ws.cand[:0]
		for y := 0; y < p.N(); y++ {
			ws.cand = append(ws.cand, y)
		}
	}
	for i := lo; i < hi; i++ {
		qrow := qm.Row(i)
		if !exact {
			e.HashVectorInto(ws.hashWords, qrow, ws)
			var best int
			ws.cand, best = e.selectKeys(ws.hashWords, p, p.Packed.N, t*p.MaxNorm, ws.cand[:0])
			if len(ws.cand) == 0 {
				fallback++
				ws.cand = append(ws.cand, best)
			}
		}
		counts[i] = len(ws.cand)
		total += len(ws.cand)
		if collect {
			ws.candFlat = append(ws.candFlat, ws.cand...)
		}
		e.scoreCandidates(ws, qrow, p)
		e.weightedSum(out.Row(i), ws.cand, ws.scores, p, ws)
	}
	return total, fallback
}

// scoreCandidates sets ws.scores to the logits float64(q·K_y)·scale of
// qrow against the keys ws.cand lists, in order.
func (e *Engine) scoreCandidates(ws *Workspace, qrow []float32, p *Preprocessed) {
	n := len(ws.cand)
	dots := ws.dotBuf(n)
	scoreKeys(dots, qrow, ws.cand, p, ws)
	ws.scores = slices.Grow(ws.scores[:0], n)[:n]
	for i, dot := range dots {
		ws.scores[i] = float64(dot) * e.cfg.Scale
	}
}

// scoreKeys sets dots[i] to the dot product of qrow with key ys[i] of p,
// for ascending ys. Cold-prefix keys come first and decode one at a time
// into the workspace's scratch row (ws may be nil without a cold prefix);
// the hot keys then go through one tensor.DotRows call. Every dot equals
// tensor.Dot's bit for bit, whichever kernel computes it.
func scoreKeys(dots, qrow []float32, ys []int, p *Preprocessed, ws *Workspace) {
	i, cn := 0, p.Cold.N()
	for ; i < len(ys) && ys[i] < cn; i++ {
		dots[i] = tensor.Dot(qrow, p.keyRow(ys[i], ws))
	}
	if i < len(ys) {
		tensor.DotRows(dots[i:len(ys)], qrow, p.Keys.Data, ys[i:], cn)
	}
}

// weightedSum computes softmax over the candidate scores and accumulates
// score-weighted value rows into out, emulating the attention-computation
// and output-division modules. In Quantized mode the exponent, accumulation
// and reciprocal all pass through the LUT units and EFloat rounding.
func (e *Engine) weightedSum(out []float32, cand []int, scores []float64, p *Preprocessed, ws *Workspace) {
	if e.cfg.Quantized {
		// The hardware has no max-subtraction: it relies on the EFloat
		// range. We mirror that but guard the float64 carrier against
		// overflow by clamping into the EFloat-representable band.
		sumexp := 0.0
		acc := ws.acc[:len(out)]
		for j := range acc {
			acc[j] = 0
		}
		for ci, y := range cand {
			ev := e.expU.Exp(scores[ci])
			sumexp = fixed.RoundEFloat(sumexp + ev)
			vrow := p.valueRow(y, ws)
			for j := range acc {
				acc[j] += float64(ev * float64(vrow[j]))
			}
		}
		inv := e.recpU.Recip(sumexp)
		for j := range out {
			out[j] = float32(acc[j] * inv)
		}
		return
	}
	// Float path: numerically-stable softmax over the candidate subset,
	// with the 1/sum scale folded into each weight once. The exponentials
	// go four at a time through tensor.ExpInto; sumexp stays a
	// left-to-right sum.
	maxs := maxScore(scores)
	if cap(ws.weights) < len(scores) {
		ws.weights = make([]float64, len(scores))
	}
	w := ws.weights[:len(scores)]
	for ci, s := range scores {
		w[ci] = s - maxs
	}
	tensor.ExpInto(w, w)
	sumexp := 0.0
	for _, v := range w {
		sumexp += v
	}
	scaleWeights(w, 1/sumexp)
	// out is accumulated into; a reused workspace row holds the previous
	// call's output.
	for j := range out {
		out[j] = 0
	}
	// cand is ascending, so cold-prefix rows come first. Each decodes
	// into the one scratch row and is added alone; the hot rows then
	// continue from the same sums in one blocked pass.
	ci, cn := 0, p.Cold.N()
	for ; ci < len(cand) && cand[ci] < cn; ci++ {
		y := cand[ci]
		addWeightedRows(out, w[ci:ci+1], p.valueRow(y, ws), cand[ci:ci+1], y)
	}
	addWeightedRows(out, w[ci:], p.Values.Data, cand[ci:], cn)
}

// maxScore returns the largest element of scores that is not NaN, or -Inf
// when there is none. Where the CPU has AVX2, maxAVX2 takes the first
// len - len mod 4 elements in four lanes; the lanes and the rest meet in
// the loop below. Two equal maxima differ at most in the sign of a zero,
// and s - (+0) and s - (-0) have the same exponential, so the softmax is
// the same whichever lane wins.
func maxScore(scores []float64) float64 {
	m := math.Inf(-1)
	if n := len(scores) &^ 3; tensor.HasAVX2 && n > 0 {
		m = maxAVX2(&scores[0], n)
		scores = scores[n:]
	}
	for _, s := range scores {
		if s > m {
			m = s
		}
	}
	return m
}

// scaleWeights multiplies every element of w by s, four at a time in
// scaleAVX2 where the CPU has AVX2.
func scaleWeights(w []float64, s float64) {
	if n := len(w) &^ 3; tensor.HasAVX2 && n > 0 {
		scaleAVX2(&w[0], n, s)
		w = w[n:]
	}
	for i := range w {
		w[i] *= s
	}
}

// addWeightedRows adds float32(float32(w[i])·V_i[j]) to out[j] for each
// row i in order, where V_i is vals[(rows[i]-base)·d:] and d = len(out):
// each weight is rounded to float32 once, and the product and the sum stay
// in float32. Per element that is the sum a row-at-a-time loop computes,
// in the same order. Where the CPU has AVX2, weightedRowsAVX2 sums the
// first d - d mod 8 columns; the Go loops below sum the rest, or every
// column elsewhere. They hold the sums of 8 columns at a time in registers
// across all rows; the d mod 8 columns left over accumulate in out
// directly. Each product is converted explicitly, so no compiler fuses it
// into the sum and every architecture gets the kernel's bits.
func addWeightedRows(out []float32, w []float64, vals []float32, rows []int, base int) {
	d := len(out)
	w = w[:len(rows)]
	j := 0
	if tensor.HasAVX2 && d >= 8 && len(rows) > 0 {
		nv := len(vals) / d
		for _, y := range rows {
			if uint(y-base) >= uint(nv) {
				panic(fmt.Sprintf("attention: value row %d outside %d rows from %d", y, nv, base))
			}
		}
		j = d &^ 7
		weightedRowsAVX2(&out[0], j, &w[0], &vals[0], &rows[0], len(rows), base, d)
	}
	for ; j+8 <= d; j += 8 {
		o := out[j : j+8]
		s0, s1, s2, s3, s4, s5, s6, s7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		for i, y := range rows {
			wy := float32(w[i])
			off := (y-base)*d + j
			v := vals[off : off+8]
			s0 += float32(wy * v[0])
			s1 += float32(wy * v[1])
			s2 += float32(wy * v[2])
			s3 += float32(wy * v[3])
			s4 += float32(wy * v[4])
			s5 += float32(wy * v[5])
			s6 += float32(wy * v[6])
			s7 += float32(wy * v[7])
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	if j == d {
		return
	}
	o := out[j:]
	for i, y := range rows {
		wy := float32(w[i])
		off := (y-base)*d + j
		for k, x := range vals[off : off+len(o)] {
			o[k] += float32(wy * x)
		}
	}
}
