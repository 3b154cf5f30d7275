package transformer

import (
	"fmt"

	"elsa/internal/attention"
	"elsa/internal/tensor"
)

// Backend computes one attention head. Implementations: ExactBackend (the
// reference operator) and ELSABackend (the approximate engine with learned
// per-sub-layer thresholds).
type Backend interface {
	// Attend runs attention for head `head` of layer `layer`.
	Attend(layer, head int, q, k, v *tensor.Matrix) (*tensor.Matrix, HeadStats, error)
}

// HeadStats reports one head invocation's work.
type HeadStats struct {
	// Queries and Keys are the operation shape.
	Queries, Keys int
	// Candidates is the number of (query, key) pairs computed exactly; for
	// the exact backend this is Queries·Keys.
	Candidates int
}

// CandidateFraction is Candidates / (Queries·Keys).
func (s HeadStats) CandidateFraction() float64 {
	if s.Queries == 0 || s.Keys == 0 {
		return 0
	}
	return float64(s.Candidates) / (float64(s.Queries) * float64(s.Keys))
}

// ExactBackend computes the reference softmax(QKᵀ/√d)·V.
type ExactBackend struct{}

// Attend implements Backend.
func (ExactBackend) Attend(_, _ int, q, k, v *tensor.Matrix) (*tensor.Matrix, HeadStats, error) {
	out := attention.Exact(q, k, v, attention.DefaultScale(q.Cols))
	return out, HeadStats{Queries: q.Rows, Keys: k.Rows, Candidates: q.Rows * k.Rows}, nil
}

// Sublayer addresses one attention head of one layer.
type Sublayer struct {
	Layer, Head int
}

// ELSABackend routes every head through an approximate-attention engine
// with a per-sub-layer threshold (the paper's §III-E scheme).
type ELSABackend struct {
	Engine *attention.Engine
	// Thresholds maps each sub-layer to its learned threshold. Missing
	// entries fall back to Default.
	Thresholds map[Sublayer]float64
	// Default is used for sub-layers with no learned threshold; set it to
	// attention.ExactThresholdNoApprox to disable filtering there.
	Default float64
}

// Attend implements Backend.
func (b *ELSABackend) Attend(layer, head int, q, k, v *tensor.Matrix) (*tensor.Matrix, HeadStats, error) {
	if b.Engine == nil {
		return nil, HeadStats{}, fmt.Errorf("transformer: ELSABackend has no engine")
	}
	thr, ok := b.Thresholds[Sublayer{layer, head}]
	if !ok {
		thr = b.Default
	}
	pre, err := b.Engine.Preprocess(k, v)
	if err != nil {
		return nil, HeadStats{}, err
	}
	res, err := b.Engine.Attend(q, pre, thr)
	if err != nil {
		return nil, HeadStats{}, err
	}
	return res.Output, HeadStats{Queries: q.Rows, Keys: k.Rows, Candidates: res.TotalCandidates}, nil
}

// ForwardStats aggregates per-head statistics over one forward pass.
type ForwardStats struct {
	// Heads is the number of attention-head invocations.
	Heads int
	// TotalCandidates and TotalPairs accumulate filtered vs possible work.
	TotalCandidates, TotalPairs int64
	// PerLayerFraction is the mean candidate fraction per layer.
	PerLayerFraction []float64
}

// CandidateFraction is the model-wide fraction of (query, key) pairs that
// reached exact computation.
func (s ForwardStats) CandidateFraction() float64 {
	if s.TotalPairs == 0 {
		return 0
	}
	return float64(s.TotalCandidates) / float64(s.TotalPairs)
}

// Forward runs the encoder stack on x (n×hidden) with the given attention
// backend and returns the final representations plus work statistics.
func (m *Model) Forward(x *tensor.Matrix, b Backend) (*tensor.Matrix, ForwardStats, error) {
	if x.Cols != m.Spec.Hidden {
		return nil, ForwardStats{}, fmt.Errorf("transformer: input width %d, model hidden %d", x.Cols, m.Spec.Hidden)
	}
	stats := ForwardStats{PerLayerFraction: make([]float64, len(m.Layers))}
	h := x.Clone()
	headDim := m.Spec.HeadDim
	for li, layer := range m.Layers {
		// --- attention block: h = h + Wo·MHA(LN(h)) ---
		normed := h.Clone()
		LayerNorm(normed, layer.LN1Gamma, layer.LN1Beta)
		q := tensor.MatMul(normed, layer.Wq)
		addBias(q, layer.Bq)
		k := tensor.MatMul(normed, layer.Wk)
		addBias(k, layer.Bk)
		v := tensor.MatMul(normed, layer.Wv)
		addBias(v, layer.Bv)

		merged := tensor.New(h.Rows, m.Spec.Hidden)
		var layerCand, layerPairs int64
		for head := 0; head < m.Spec.Heads; head++ {
			out, hs, err := b.Attend(li, head, splitHead(q, head, headDim), splitHead(k, head, headDim), splitHead(v, head, headDim))
			if err != nil {
				return nil, ForwardStats{}, fmt.Errorf("transformer: layer %d head %d: %w", li, head, err)
			}
			if out.Rows != h.Rows || out.Cols != headDim {
				return nil, ForwardStats{}, fmt.Errorf("transformer: layer %d head %d: backend returned %dx%d, want %dx%d",
					li, head, out.Rows, out.Cols, h.Rows, headDim)
			}
			mergeHead(merged, out, head, headDim)
			stats.Heads++
			stats.TotalCandidates += int64(hs.Candidates)
			stats.TotalPairs += int64(hs.Queries) * int64(hs.Keys)
			layerCand += int64(hs.Candidates)
			layerPairs += int64(hs.Queries) * int64(hs.Keys)
		}
		attnOut := tensor.MatMul(merged, layer.Wo)
		addBias(attnOut, layer.Bo)
		addInto(h, attnOut)
		if layerPairs > 0 {
			stats.PerLayerFraction[li] = float64(layerCand) / float64(layerPairs)
		}

		// --- feed-forward block: h = h + W2·GELU(W1·LN(h)) ---
		normed2 := h.Clone()
		LayerNorm(normed2, layer.LN2Gamma, layer.LN2Beta)
		inner := tensor.MatMul(normed2, layer.W1)
		addBias(inner, layer.B1)
		for i := 0; i < inner.Rows; i++ {
			GELU(inner.Row(i))
		}
		ffnOut := tensor.MatMul(inner, layer.W2)
		addBias(ffnOut, layer.B2)
		addInto(h, ffnOut)
	}
	return h, stats, nil
}

// Calibrate learns a threshold for every (layer, head) sub-layer of the
// model at degree-of-approximation p: it runs exact forward passes over the
// calibration inputs, captures each sub-layer's Q and K, and trains the
// paper's Fig 6 statistic per sub-layer. The result plugs directly into an
// ELSABackend.
func (m *Model) Calibrate(engine *attention.Engine, p float64, inputs []*tensor.Matrix) (map[Sublayer]float64, error) {
	if p == 0 {
		return map[Sublayer]float64{}, nil
	}
	trainers := make(map[Sublayer]*attention.ThresholdTrainer)
	for li := range m.Layers {
		for head := 0; head < m.Spec.Heads; head++ {
			tt, err := attention.NewThresholdTrainer(p, engine.Config().Scale)
			if err != nil {
				return nil, err
			}
			trainers[Sublayer{li, head}] = tt
		}
	}
	cb := &calibrationBackend{trainers: trainers}
	for _, x := range inputs {
		if _, _, err := m.Forward(x, cb); err != nil {
			return nil, err
		}
	}
	out := make(map[Sublayer]float64, len(trainers))
	for sl, tt := range trainers {
		thr, err := tt.Threshold()
		if err != nil {
			return nil, fmt.Errorf("transformer: sublayer %v: %w", sl, err)
		}
		out[sl] = thr
	}
	return out, nil
}

// calibrationBackend computes exact attention while feeding every
// sub-layer's Q/K to its threshold trainer.
type calibrationBackend struct {
	trainers map[Sublayer]*attention.ThresholdTrainer
}

func (c *calibrationBackend) Attend(layer, head int, q, k, v *tensor.Matrix) (*tensor.Matrix, HeadStats, error) {
	if tt, ok := c.trainers[Sublayer{layer, head}]; ok {
		if err := tt.Observe(q, k); err != nil {
			return nil, HeadStats{}, err
		}
	}
	return ExactBackend{}.Attend(layer, head, q, k, v)
}
