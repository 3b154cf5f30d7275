package elsa

import (
	"fmt"
	"sync"

	"elsa/internal/attention"
	"elsa/internal/elsasim"
	"elsa/internal/tensor"
)

// Options configures an Engine. The zero value of every field selects the
// paper's default.
type Options struct {
	// HeadDim is the per-head vector dimension d (default 64).
	HeadDim int
	// HashBits is the binary-embedding width k (default: HeadDim).
	HashBits int
	// Quantized runs the datapath with the accelerator's number formats
	// (Q(1,5,3) inputs, LUT exponent/reciprocal/sqrt units) instead of
	// float32/64 (default false).
	Quantized bool
	// Scale is the softmax scale (default 1/√HeadDim).
	Scale float64
	// Seed drives projection and calibration randomness (default 0).
	Seed int64
	// Hardware configures the simulated accelerator (default: the paper's
	// n=512, Pa=4, Pc=8, m_h=256, m_o=16 at 1 GHz).
	Hardware Hardware
}

// Hardware is the accelerator pipeline configuration exposed by the public
// API; see the paper's §IV-D for the role of each knob.
type Hardware struct {
	// MaxSeq is the maximum entity count n the hardware is sized for.
	MaxSeq int
	// AttentionModules is P_a, the parallel attention-computation module
	// (and memory bank) count.
	AttentionModules int
	// SelectorsPerBank is P_c, candidate-selection modules per bank.
	SelectorsPerBank int
	// HashMultipliers is m_h.
	HashMultipliers int
	// DivMultipliers is m_o.
	DivMultipliers int
	// FreqHz is the clock frequency.
	FreqHz float64
}

// DefaultHardware returns the paper's evaluation configuration.
func DefaultHardware() Hardware {
	c := elsasim.Default()
	return Hardware{
		MaxSeq:           c.N,
		AttentionModules: c.Pa,
		SelectorsPerBank: c.Pc,
		HashMultipliers:  c.Mh,
		DivMultipliers:   c.Mo,
		FreqHz:           c.FreqHz,
	}
}

func (h Hardware) toSim(d, k int) elsasim.Config {
	return elsasim.Config{
		N: h.MaxSeq, D: d, K: k,
		Pa: h.AttentionModules, Pc: h.SelectorsPerBank,
		Mh: h.HashMultipliers, Mo: h.DivMultipliers,
		FreqHz: h.FreqHz,
	}
}

// Threshold is a learned candidate-selection threshold for one attention
// (sub-)layer at a chosen degree of approximation.
type Threshold struct {
	// P is the degree-of-approximation hyperparameter it was learned for
	// (0 disables approximation).
	P float64
	// T is the learned layer threshold in query-normalized similarity
	// units; the filter admits keys with ‖K_y‖·cos(θ̂) > T·‖K_max‖.
	T float64
	// Queries is how many calibration queries contributed.
	Queries int
}

// Exact is the threshold that disables approximation (p = 0 fallback).
func Exact() Threshold {
	return Threshold{P: 0, T: attention.ExactThresholdNoApprox}
}

// Engine runs exact and approximate self-attention and simulates the
// accelerator. Create one with New; an Engine is immutable and safe for
// concurrent use.
type Engine struct {
	opts   Options
	engine *attention.Engine
	sim    *elsasim.Simulator
	// wsPool recycles attention workspaces for the serving-oriented Attend
	// fast path, which skips per-query candidate-list collection.
	wsPool sync.Pool
}

// getWorkspace takes a no-candidate-collection workspace from the pool.
func (e *Engine) getWorkspace() *attention.Workspace {
	ws, ok := e.wsPool.Get().(*attention.Workspace)
	if !ok {
		ws = attention.NewWorkspace(e.engine)
	}
	ws.CollectCandidates = false
	return ws
}

// New builds an Engine: it draws the Kronecker-structured hash projection,
// calibrates θ_bias, and instantiates the hardware simulator.
func New(opts Options) (*Engine, error) {
	if opts.HeadDim == 0 {
		opts.HeadDim = 64
	}
	if opts.Hardware == (Hardware{}) {
		opts.Hardware = DefaultHardware()
	}
	eng, err := attention.NewEngine(attention.Config{
		D:         opts.HeadDim,
		K:         opts.HashBits,
		Scale:     opts.Scale,
		Quantized: opts.Quantized,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	sim, err := newSimulator(opts, eng)
	if err != nil {
		return nil, err
	}
	opts.HashBits = eng.Config().K
	opts.Scale = eng.Config().Scale
	return &Engine{opts: opts, engine: eng, sim: sim}, nil
}

// newSimulator builds the hardware simulator matched to the engine.
func newSimulator(opts Options, eng *attention.Engine) (*elsasim.Simulator, error) {
	sim, err := elsasim.New(opts.Hardware.toSim(eng.Config().D, eng.Config().K), eng)
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	return sim, nil
}

// Options returns the resolved options.
func (e *Engine) Options() Options { return e.opts }

// Bias returns the calibrated θ_bias angle-correction term (§III-B; the
// paper reports 0.127 for d = k = 64).
func (e *Engine) Bias() float64 { return e.engine.Bias() }

// toMatrix validates and converts a [][]float32 into the internal dense
// representation.
func toMatrix(name string, rows [][]float32, wantCols int) (*tensor.Matrix, error) {
	m, err := tensor.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("elsa: %s: %w", name, err)
	}
	if wantCols > 0 && m.Cols != wantCols {
		return nil, fmt.Errorf("elsa: %s has %d columns, engine head dim is %d", name, m.Cols, wantCols)
	}
	return m, nil
}

func fromMatrix(m *tensor.Matrix) [][]float32 {
	out := make([][]float32, m.Rows)
	for i := range out {
		out[i] = append([]float32(nil), m.Row(i)...)
	}
	return out
}

// ExactAttention computes the reference softmax(scale·Q·Kᵀ)·V.
func (e *Engine) ExactAttention(q, k, v [][]float32) ([][]float32, error) {
	qm, err := toMatrix("queries", q, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	km, err := toMatrix("keys", k, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	vm, err := toMatrix("values", v, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	if km.Rows != vm.Rows {
		return nil, fmt.Errorf("elsa: %d keys but %d values", km.Rows, vm.Rows)
	}
	return fromMatrix(attention.Exact(qm, km, vm, e.opts.Scale)), nil
}

// AttendLinearScan computes exact attention through the linear-scan
// backend: online softmax in one streaming pass over the keys, O(d) state
// per query, no n×n score materialization. It is the second independent
// exact implementation (ExactAttention materializes scores) and agrees
// with it within the differential bound the fuzz suite pins. The Output
// reports every key as a candidate (CandidateFraction 1, no fallbacks).
// Callers select it per op via Overrides.Backend = BackendLinearScan.
func (e *Engine) AttendLinearScan(q, k, v [][]float32) (*Output, error) {
	qm, err := toMatrix("queries", q, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	km, err := toMatrix("keys", k, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	vm, err := toMatrix("values", v, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	pre, err := e.engine.PreprocessExact(km, vm)
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	ws := e.getWorkspace()
	res, err := e.engine.AttendLinearScanWith(ws, qm, pre)
	if err != nil {
		e.wsPool.Put(ws)
		return nil, fmt.Errorf("elsa: %w", err)
	}
	out := &Output{
		Context:            fromMatrix(res.Output),
		CandidateFraction:  res.CandidateFraction(km.Rows),
		CandidatesPerQuery: append([]int(nil), res.CandidateCounts...),
		FallbackQueries:    res.FallbackQueries,
	}
	e.wsPool.Put(ws)
	return out, nil
}

// Sample is one calibration invocation: the query and key matrices of an
// attention call on representative data.
type Sample struct {
	Q, K [][]float32
}

// Calibrate learns the layer threshold for degree-of-approximation p from
// calibration samples (the paper's Fig 6 procedure). p = 0 returns the
// exact (filter-disabled) threshold without needing samples.
func (e *Engine) Calibrate(p float64, samples []Sample) (Threshold, error) {
	if p == 0 {
		return Exact(), nil
	}
	tt, err := attention.NewThresholdTrainer(p, e.opts.Scale)
	if err != nil {
		return Threshold{}, fmt.Errorf("elsa: %w", err)
	}
	for i, s := range samples {
		qm, err := toMatrix(fmt.Sprintf("sample %d queries", i), s.Q, e.opts.HeadDim)
		if err != nil {
			return Threshold{}, err
		}
		km, err := toMatrix(fmt.Sprintf("sample %d keys", i), s.K, e.opts.HeadDim)
		if err != nil {
			return Threshold{}, err
		}
		if err := tt.Observe(qm, km); err != nil {
			return Threshold{}, fmt.Errorf("elsa: %w", err)
		}
	}
	t, err := tt.Threshold()
	if err != nil {
		return Threshold{}, fmt.Errorf("elsa: %w", err)
	}
	return Threshold{P: p, T: t, Queries: tt.Count()}, nil
}

// Output is the result of an approximate attention invocation.
type Output struct {
	// Context is the attention output, one row per query.
	Context [][]float32
	// CandidateFraction is the mean fraction of keys that survived the
	// filter per query.
	CandidateFraction float64
	// CandidatesPerQuery lists how many keys each query computed exactly.
	CandidatesPerQuery []int
	// FallbackQueries counts queries whose filter selected nothing (the
	// engine used the single best approximate key).
	FallbackQueries int
}

// Attend runs ELSA approximate self-attention with the given threshold. It
// uses the workspace fast path: per-query candidate index lists are not
// collected (Output does not expose them), so the steady-state query loop
// allocates nothing.
func (e *Engine) Attend(q, k, v [][]float32, thr Threshold) (*Output, error) {
	res, _, err := e.attend(q, k, v, thr, false)
	return res, err
}

// attend is the shared attend implementation. With collect set the returned
// attention.Result carries the per-query candidate lists (Evaluate needs
// them for the fidelity comparison); without it the pooled
// no-candidate-collection workspace path is used and the Result is nil.
func (e *Engine) attend(q, k, v [][]float32, thr Threshold, collect bool) (*Output, *attention.Result, error) {
	qm, err := toMatrix("queries", q, e.opts.HeadDim)
	if err != nil {
		return nil, nil, err
	}
	km, err := toMatrix("keys", k, e.opts.HeadDim)
	if err != nil {
		return nil, nil, err
	}
	vm, err := toMatrix("values", v, e.opts.HeadDim)
	if err != nil {
		return nil, nil, err
	}
	// The exact threshold admits every key, so the filter never runs and
	// the keys need no hashes.
	preprocess := e.engine.Preprocess
	if thr.T == attention.ExactThresholdNoApprox {
		preprocess = e.engine.PreprocessExact
	}
	pre, err := preprocess(km, vm)
	if err != nil {
		return nil, nil, fmt.Errorf("elsa: %w", err)
	}
	if !collect {
		ws := e.getWorkspace()
		res, err := e.engine.AttendWith(ws, qm, pre, thr.T)
		if err != nil {
			e.wsPool.Put(ws)
			return nil, nil, fmt.Errorf("elsa: %w", err)
		}
		// The Result is workspace-owned, so copy what Output exposes
		// before the workspace returns to the pool.
		out := &Output{
			Context:            fromMatrix(res.Output),
			CandidateFraction:  res.CandidateFraction(km.Rows),
			CandidatesPerQuery: append([]int(nil), res.CandidateCounts...),
			FallbackQueries:    res.FallbackQueries,
		}
		e.wsPool.Put(ws)
		return out, nil, nil
	}
	res, err := e.engine.Attend(qm, pre, thr.T)
	if err != nil {
		return nil, nil, fmt.Errorf("elsa: %w", err)
	}
	return &Output{
		Context:            fromMatrix(res.Output),
		CandidateFraction:  res.CandidateFraction(km.Rows),
		CandidatesPerQuery: res.CandidateCounts,
		FallbackQueries:    res.FallbackQueries,
	}, res, nil
}

// Fidelity compares an approximate run against exact attention on the same
// inputs.
type Fidelity struct {
	// MeanCosine and MinCosine measure per-row output direction agreement.
	MeanCosine, MinCosine float64
	// RetainedMass is the mean exact softmax mass of the selected keys.
	RetainedMass float64
	// MeanAbsErr is the mean absolute elementwise error.
	MeanAbsErr float64
}

// Evaluate runs approximate attention and measures its fidelity against the
// exact operator in one call.
func (e *Engine) Evaluate(q, k, v [][]float32, thr Threshold) (*Output, Fidelity, error) {
	out, res, err := e.attend(q, k, v, thr, true)
	if err != nil {
		return nil, Fidelity{}, err
	}
	qm, _ := toMatrix("queries", q, e.opts.HeadDim)
	km, _ := toMatrix("keys", k, e.opts.HeadDim)
	vm, _ := toMatrix("values", v, e.opts.HeadDim)
	exactOut, exactScores := attention.ExactWithScores(qm, km, vm, e.opts.Scale)
	fid, err := attention.Compare(exactOut, exactScores, res)
	if err != nil {
		return nil, Fidelity{}, fmt.Errorf("elsa: %w", err)
	}
	return out, Fidelity{
		MeanCosine:   fid.MeanCosine,
		MinCosine:    fid.MinCosine,
		RetainedMass: fid.RetainedMass,
		MeanAbsErr:   fid.MeanAbsErr,
	}, nil
}

// AttendCausal runs ELSA approximate attention with causal (decoder-style)
// masking: query i attends only keys 0..i. Queries, keys and values must
// have the same row count.
func (e *Engine) AttendCausal(q, k, v [][]float32, thr Threshold) (*Output, error) {
	qm, err := toMatrix("queries", q, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	km, err := toMatrix("keys", k, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	vm, err := toMatrix("values", v, e.opts.HeadDim)
	if err != nil {
		return nil, err
	}
	pre, err := e.engine.Preprocess(km, vm)
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	res, err := e.engine.AttendCausal(qm, pre, thr.T)
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	return &Output{
		Context:            fromMatrix(res.Output),
		CandidateFraction:  res.CandidateFraction(km.Rows),
		CandidatesPerQuery: res.CandidateCounts,
		FallbackQueries:    res.FallbackQueries,
	}, nil
}
