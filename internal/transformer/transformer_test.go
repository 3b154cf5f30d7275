package transformer

import (
	"math"
	"math/rand"
	"testing"

	"elsa/internal/attention"
	"elsa/internal/model"
	"elsa/internal/tensor"
)

// tinySpec is a 2-layer, 2-head model small enough for fast tests.
var tinySpec = model.Spec{
	Name: "tiny", Kind: model.NLP,
	Layers: 2, Heads: 2, HeadDim: 16, Hidden: 32, FFNDim: 64, MaxSeq: 64,
}

// testInput builds clustered token embeddings so attention rows are
// concentrated.
func testInput(rng *rand.Rand, n, hidden int) *tensor.Matrix {
	centers := tensor.RandomNormal(rng, 4, hidden)
	x := tensor.New(n, hidden)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(4))
		row := x.Row(i)
		for j := 0; j < hidden; j++ {
			row[j] = 1.5*c[j] + 0.5*float32(rng.NormFloat64())
		}
	}
	return x
}

func newTinyModel(t *testing.T, seed int64) *Model {
	t.Helper()
	m, err := NewRandom(rand.New(rand.NewSource(seed)), tinySpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTinyEngine(t *testing.T, seed int64) *attention.Engine {
	t.Helper()
	eng, err := attention.NewEngine(attention.Config{D: tinySpec.HeadDim, BiasSamples: 200, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewRandomLayerValidation(t *testing.T) {
	bad := tinySpec
	bad.Hidden = 33 // != heads*headdim
	if _, err := NewRandomLayer(rand.New(rand.NewSource(1)), bad); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestNewRandomModelLayerCount(t *testing.T) {
	m := newTinyModel(t, 1)
	if len(m.Layers) != tinySpec.Layers {
		t.Errorf("layers = %d, want %d", len(m.Layers), tinySpec.Layers)
	}
	m2, err := NewRandom(rand.New(rand.NewSource(1)), tinySpec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Layers) != 5 {
		t.Errorf("explicit layer count ignored: %d", len(m2.Layers))
	}
}

func TestLayerWeightShapes(t *testing.T) {
	m := newTinyModel(t, 2)
	l := m.Layers[0]
	if l.Wq.Rows != 32 || l.Wq.Cols != 32 || l.W1.Cols != 64 || l.W2.Rows != 64 {
		t.Error("weight shapes wrong")
	}
	if len(l.LN1Gamma) != 32 || l.LN1Gamma[0] != 1 || l.LN1Beta[0] != 0 {
		t.Error("layernorm init wrong")
	}
}

func TestLayerNormProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandomNormal(rng, 8, 32)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*3 + 7 // shift+scale to make the test meaningful
	}
	gamma := make([]float32, 32)
	beta := make([]float32, 32)
	for i := range gamma {
		gamma[i] = 1
	}
	LayerNorm(x, gamma, beta)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean, varsum float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(len(row))
		for _, v := range row {
			d := float64(v) - mean
			varsum += d * d
		}
		if math.Abs(mean) > 1e-4 {
			t.Errorf("row %d mean %g, want ~0", i, mean)
		}
		if v := varsum / float64(len(row)); math.Abs(v-1) > 1e-2 {
			t.Errorf("row %d variance %g, want ~1", i, v)
		}
	}
}

func TestLayerNormPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	LayerNorm(tensor.New(2, 4), make([]float32, 3), make([]float32, 4))
}

func TestGELUKnownValues(t *testing.T) {
	x := []float32{0, 5, -5, 1}
	GELU(x)
	if x[0] != 0 {
		t.Errorf("GELU(0) = %g, want 0", x[0])
	}
	if math.Abs(float64(x[1])-5) > 1e-3 {
		t.Errorf("GELU(5) = %g, want ~5", x[1])
	}
	if math.Abs(float64(x[2])) > 1e-3 {
		t.Errorf("GELU(-5) = %g, want ~0", x[2])
	}
	if math.Abs(float64(x[3])-0.8412) > 1e-3 {
		t.Errorf("GELU(1) = %g, want ~0.8412", x[3])
	}
}

func TestSplitMergeHeadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandomNormal(rng, 6, 32)
	dst := tensor.New(6, 32)
	for head := 0; head < 2; head++ {
		mergeHead(dst, splitHead(x, head, 16), head, 16)
	}
	if tensor.MaxAbsDiff(x, dst) != 0 {
		t.Error("split+merge must reconstruct the input")
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	m := newTinyModel(t, 5)
	rng := rand.New(rand.NewSource(5))
	x := testInput(rng, 24, 32)
	out1, stats, err := m.Forward(x, ExactBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if out1.Rows != 24 || out1.Cols != 32 {
		t.Fatalf("output shape %dx%d", out1.Rows, out1.Cols)
	}
	if stats.Heads != tinySpec.Layers*tinySpec.Heads {
		t.Errorf("heads = %d, want %d", stats.Heads, tinySpec.Layers*tinySpec.Heads)
	}
	if want := int64(stats.Heads) * 24 * 24; stats.TotalPairs != want {
		t.Errorf("pairs = %d, want %d", stats.TotalPairs, want)
	}
	if stats.CandidateFraction() != 1 {
		t.Errorf("exact backend fraction = %g, want 1", stats.CandidateFraction())
	}
	out2, _, err := m.Forward(x, ExactBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(out1, out2) != 0 {
		t.Error("forward must be deterministic")
	}
	// Forward must not mutate its input.
	x2 := testInput(rand.New(rand.NewSource(5)), 24, 32)
	if tensor.MaxAbsDiff(x, x2) != 0 {
		t.Error("Forward mutated its input")
	}
}

func TestForwardValidation(t *testing.T) {
	m := newTinyModel(t, 6)
	if _, _, err := m.Forward(tensor.New(4, 16), ExactBackend{}); err == nil {
		t.Error("wrong input width should error")
	}
}

func TestELSABackendNoApproxMatchesExact(t *testing.T) {
	m := newTinyModel(t, 7)
	eng := newTinyEngine(t, 7)
	rng := rand.New(rand.NewSource(7))
	x := testInput(rng, 32, 32)
	exactOut, _, err := m.Forward(x, ExactBackend{})
	if err != nil {
		t.Fatal(err)
	}
	be := &ELSABackend{Engine: eng, Default: attention.ExactThresholdNoApprox}
	approxOut, stats, err := m.Forward(x, be)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CandidateFraction() != 1 {
		t.Errorf("no-approx fraction = %g", stats.CandidateFraction())
	}
	if d := tensor.MaxAbsDiff(exactOut, approxOut); d > 1e-2 {
		t.Errorf("no-approx forward diverges by %g", d)
	}
}

func TestELSABackendRequiresEngine(t *testing.T) {
	m := newTinyModel(t, 8)
	rng := rand.New(rand.NewSource(8))
	x := testInput(rng, 8, 32)
	if _, _, err := m.Forward(x, &ELSABackend{}); err == nil {
		t.Error("nil engine should error")
	}
}

func TestCalibrateAndApproximateForward(t *testing.T) {
	m := newTinyModel(t, 9)
	eng := newTinyEngine(t, 9)
	rng := rand.New(rand.NewSource(9))
	var calib []*tensor.Matrix
	for i := 0; i < 2; i++ {
		calib = append(calib, testInput(rng, 32, 32))
	}
	thresholds, err := m.Calibrate(eng, 1, calib)
	if err != nil {
		t.Fatal(err)
	}
	if len(thresholds) != tinySpec.Layers*tinySpec.Heads {
		t.Fatalf("got %d thresholds, want %d", len(thresholds), tinySpec.Layers*tinySpec.Heads)
	}
	// Run an approximate forward with the learned thresholds.
	x := testInput(rng, 32, 32)
	exactOut, _, err := m.Forward(x, ExactBackend{})
	if err != nil {
		t.Fatal(err)
	}
	be := &ELSABackend{Engine: eng, Thresholds: thresholds, Default: attention.ExactThresholdNoApprox}
	approxOut, stats, err := m.Forward(x, be)
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.CandidateFraction(); f >= 1 || f <= 0 {
		t.Errorf("calibrated fraction = %g, want in (0,1)", f)
	}
	// End-to-end representations must stay close despite the filtering.
	var cosSum float64
	for i := 0; i < x.Rows; i++ {
		cosSum += tensor.CosineSim(exactOut.Row(i), approxOut.Row(i))
	}
	if mean := cosSum / float64(x.Rows); mean < 0.95 {
		t.Errorf("end-to-end cosine %g too low", mean)
	}
	for li, f := range stats.PerLayerFraction {
		if f <= 0 || f > 1 {
			t.Errorf("layer %d fraction %g out of range", li, f)
		}
	}
}

func TestCalibrateP0ReturnsEmpty(t *testing.T) {
	m := newTinyModel(t, 10)
	eng := newTinyEngine(t, 10)
	ths, err := m.Calibrate(eng, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) != 0 {
		t.Error("p=0 should learn nothing")
	}
}

func TestCalibrateNoInputsErrors(t *testing.T) {
	m := newTinyModel(t, 11)
	eng := newTinyEngine(t, 11)
	if _, err := m.Calibrate(eng, 1, nil); err == nil {
		t.Error("no calibration inputs should error (trainers unfed)")
	}
}

// badBackend returns wrongly-shaped outputs to exercise Forward's shape
// guard.
type badBackend struct{}

func (badBackend) Attend(_, _ int, q, _, _ *tensor.Matrix) (*tensor.Matrix, HeadStats, error) {
	return tensor.New(q.Rows, q.Cols+1), HeadStats{}, nil
}

func TestForwardRejectsBadBackendOutput(t *testing.T) {
	m := newTinyModel(t, 12)
	rng := rand.New(rand.NewSource(12))
	x := testInput(rng, 8, 32)
	if _, _, err := m.Forward(x, badBackend{}); err == nil {
		t.Error("mis-shaped backend output should error")
	}
}

func TestHeadStatsEdge(t *testing.T) {
	if (HeadStats{}).CandidateFraction() != 0 {
		t.Error("empty stats fraction should be 0")
	}
	s := HeadStats{Queries: 4, Keys: 8, Candidates: 8}
	if s.CandidateFraction() != 0.25 {
		t.Errorf("fraction = %g, want 0.25", s.CandidateFraction())
	}
}

func TestForwardStatsEdge(t *testing.T) {
	if (ForwardStats{}).CandidateFraction() != 0 {
		t.Error("empty forward stats fraction should be 0")
	}
}
