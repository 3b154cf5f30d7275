package attention

import (
	"fmt"
	"math"

	"elsa/internal/fixed"
	"elsa/internal/kron"
	"elsa/internal/tensor"
)

// State captures everything needed to reconstruct an Engine exactly: the
// resolved configuration, the calibrated θ_bias, and the hash projection
// factors. Two engines with the same State produce bit-identical hashes,
// candidate sets, and outputs — the property a deployment needs when
// thresholds are calibrated offline and shipped to inference fleets.
type State struct {
	Config Config
	Bias   float64
	// Batches[b][f] is factor f of projection batch b, as row slices.
	Batches [][][][]float32
}

// State extracts the engine's reproducible state.
func (e *Engine) State() State {
	st := State{Config: e.cfg, Bias: e.bias}
	for _, p := range e.projs {
		var factors [][][]float32
		for _, f := range p.Factors() {
			rows := make([][]float32, f.Rows)
			for i := range rows {
				rows[i] = append([]float32(nil), f.Row(i)...)
			}
			factors = append(factors, rows)
		}
		st.Batches = append(st.Batches, factors)
	}
	return st
}

// maxStateWidth bounds a restored engine's head dimension and hash bits.
// A Kronecker batch's dimensions are the products of its factors', so a
// few bytes of state could otherwise ask for a billion-entry cos LUT.
const maxStateWidth = 1 << 14

// NewEngineFromState reconstructs an engine without re-drawing projections
// or re-calibrating θ_bias. State usually comes from a file, so every size
// is checked before anything is allocated by it: d and k are at most
// maxStateWidth, and every factor is at most as tall as it is wide (hash
// projections have orthonormal rows), so no batch maps to more bits or
// more dimensions than the engine has.
func NewEngineFromState(st State) (*Engine, error) {
	cfg := st.Config
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.D > maxStateWidth || cfg.K > maxStateWidth {
		return nil, fmt.Errorf("attention: state is d=%d k=%d, above the %d limit", cfg.D, cfg.K, maxStateWidth)
	}
	if math.IsNaN(st.Bias) || math.IsInf(st.Bias, 0) {
		return nil, fmt.Errorf("attention: state has non-finite bias")
	}
	if len(st.Batches) == 0 {
		return nil, fmt.Errorf("attention: state has no projection batches")
	}
	var projs []*kron.Projection
	totalK := 0
	for bi, batch := range st.Batches {
		var factors []*tensor.Matrix
		d := 1
		for fi, rows := range batch {
			m, err := tensor.FromRows(rows)
			if err != nil {
				return nil, fmt.Errorf("attention: state batch %d factor %d: %w", bi, fi, err)
			}
			d *= m.Cols
			if m.Rows > m.Cols || d > cfg.D {
				return nil, fmt.Errorf("attention: state batch %d factor %d is %d×%d, not a hash factor of a d=%d engine", bi, fi, m.Rows, m.Cols, cfg.D)
			}
			factors = append(factors, m)
		}
		p, err := kron.NewProjection(factors...)
		if err != nil {
			return nil, fmt.Errorf("attention: state batch %d: %w", bi, err)
		}
		if p.D != cfg.D {
			return nil, fmt.Errorf("attention: state batch %d maps %d dims, engine is d=%d", bi, p.D, cfg.D)
		}
		totalK += p.K
		projs = append(projs, p)
	}
	if totalK != cfg.K {
		return nil, fmt.Errorf("attention: state batches produce %d hash bits, config says k=%d", totalK, cfg.K)
	}
	e := &Engine{
		cfg:    cfg,
		projs:  projs,
		bias:   st.Bias,
		cosLUT: newCosLUT(cfg.K, st.Bias),
		expU:   fixed.NewExpUnit(),
		recpU:  fixed.NewRecipUnit(),
		sqrtU:  fixed.NewSqrtUnit(),
	}
	return e, nil
}
