package attention

import (
	"fmt"
	"math"

	"elsa/internal/fixed"
	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// Stream supports autoregressive decoding workloads (the GPT-style text
// generation the paper's introduction cites): keys and values arrive one
// token at a time as the model generates, and each new query attends over
// the prefix so far. ELSA's preprocessing is naturally incremental — each
// appended key is hashed once through the Kronecker fast path
// (3·d^{4/3} multiplications) and its norm computed once — so the
// per-token preprocessing cost is constant instead of O(n).
//
// A Stream is not safe for concurrent use.
type Stream struct {
	engine *Engine
	// Growing hot-tail backing stores; keys/values hold hotN·d elements,
	// where hotN = n - cold.N(). Hashes live in a packed arena spanning the
	// full sequence (cold prefix included) that grows one row per appended
	// token, so queries scan the same contiguous layout as batch attention.
	keys, values []float32
	packed       *srp.PackedHashes
	norms        []float64
	maxNorm      float64
	n            int
	// watermark, when > 0, bounds the hot tail: once the tail reaches twice
	// the watermark, the oldest hotN - watermark rows demote in one chunk to
	// the bit-packed Q(1,5,3) cold store, keeping the tail in
	// [watermark, 2·watermark) and the per-token demotion cost O(d)
	// amortized. 0 (the default) keeps everything hot.
	watermark int
	cold      *ColdPrefix
	// ws is the stream's private workspace: Streams are single-goroutine by
	// contract, so per-token hashing and querying run allocation-free
	// without touching the engine pool.
	ws *Workspace
	// snap, keysMat, valsMat and qMat are the reusable prefix-view and
	// query-staging structs, so QueryWith builds its Preprocessed without
	// heap allocation.
	snap             Preprocessed
	keysMat, valsMat tensor.Matrix
	qMat             tensor.Matrix
}

// NewStream creates an empty key/value stream with storage preallocated
// for capacity tokens (it grows beyond that as needed).
func (e *Engine) NewStream(capacity int) *Stream {
	return e.NewStreamCold(capacity, 0)
}

// NewStreamCold is NewStream with a cold watermark: tokens older than the
// hot tail the watermark bounds are demoted to the bit-packed Q(1,5,3)
// representation (see Stream.watermark). watermark <= 0 keeps the whole
// stream hot — identical to NewStream.
func (e *Engine) NewStreamCold(capacity, watermark int) *Stream {
	if capacity < 0 {
		capacity = 0
	}
	if watermark < 0 {
		watermark = 0
	}
	hotCap := capacity
	if watermark > 0 && hotCap > 2*watermark {
		hotCap = 2 * watermark
	}
	return &Stream{
		engine:    e,
		keys:      make([]float32, 0, hotCap*e.cfg.D),
		values:    make([]float32, 0, hotCap*e.cfg.D),
		packed:    srp.NewPackedHashesCap(e.cfg.K, capacity),
		norms:     make([]float64, 0, capacity),
		watermark: watermark,
		ws:        NewWorkspace(e),
	}
}

// Len returns the number of tokens appended so far.
func (s *Stream) Len() int { return s.n }

// ColdLen returns how many of the oldest tokens have been demoted to the
// bit-packed cold representation.
func (s *Stream) ColdLen() int { return s.cold.N() }

// Watermark returns the configured cold watermark (0 = never demote).
func (s *Stream) Watermark() int { return s.watermark }

// StateBytes reports the resident payload bytes of the stream's per-token
// state — hot f32 K/V, the packed hash arena, norms, and the bit-packed
// cold store — the resident-bytes-per-session number the serving layer's
// migration benchmark tracks. Buffer headers and slack capacity are not
// counted.
func (s *Stream) StateBytes() int {
	return len(s.keys)*4 + len(s.values)*4 + len(s.packed.Words)*8 + len(s.norms)*8 + s.cold.Bytes()
}

// hotLen returns the number of tokens resident in the hot f32 tail.
func (s *Stream) hotLen() int { return s.n - s.cold.N() }

// MaxNorm returns the largest key norm seen so far (the running ‖K_max‖
// the hardware's norm module maintains).
func (s *Stream) MaxNorm() float64 { return s.maxNorm }

// CheckAppend reports the error Stream.Append would return for key and
// value on a stream of e, without appending anything.
func (e *Engine) CheckAppend(key, value []float32) error {
	d := e.cfg.D
	if len(key) != d || len(value) != d {
		return fmt.Errorf("attention: stream append with dims %d/%d, engine built for %d",
			len(key), len(value), d)
	}
	for _, v := range key {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("attention: stream key contains a non-finite value")
		}
	}
	for _, v := range value {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("attention: stream value contains a non-finite value")
		}
	}
	return nil
}

// Append adds one token's key and value, hashing the key incrementally.
func (s *Stream) Append(key, value []float32) error {
	if err := s.engine.CheckAppend(key, value); err != nil {
		return err
	}
	// Append straight into the backing stores and quantize in place, so the
	// steady-state append path allocates only when a store grows.
	base := len(s.keys)
	s.keys = append(s.keys, key...)
	s.values = append(s.values, value...)
	kq := s.keys[base:]
	if s.engine.cfg.Quantized {
		fixed.QKV.QuantizeSlice(kq)
		fixed.QKV.QuantizeSlice(s.values[base:])
	}
	s.engine.HashVectorInto(s.packed.AppendRow(), kq, s.ws)
	var sq [1]float32
	tensor.SelfDots(sq[:], kq, len(kq))
	var norm float64
	if s.engine.cfg.Quantized {
		norm = s.engine.sqrtU.Sqrt(float64(sq[0]))
	} else {
		norm = math.Sqrt(float64(sq[0]))
	}
	s.norms = append(s.norms, norm)
	if norm > s.maxNorm {
		s.maxNorm = norm
	}
	s.n++
	if s.watermark > 0 && s.hotLen() >= 2*s.watermark {
		s.demote(s.hotLen() - s.watermark)
	}
	return nil
}

// demote moves the oldest count hot rows into the bit-packed cold store
// and compacts the hot tail down. Hashes and norms stay where they are —
// they span the full sequence and are not affected by K/V demotion. In
// quantized mode the hot rows are already on the Q(1,5,3) grid, so
// demotion is bit-lossless; in float mode it rounds each demoted element
// to the grid (the cold-prefix fidelity bound pinned by test).
func (s *Stream) demote(count int) {
	if count <= 0 {
		return
	}
	d := s.engine.cfg.D
	if s.cold == nil {
		s.cold = newColdPrefix(d, 0)
	}
	for i := 0; i < count; i++ {
		s.cold.Keys.AppendRow(s.keys[i*d : (i+1)*d])
		s.cold.Values.AppendRow(s.values[i*d : (i+1)*d])
	}
	n := copy(s.keys, s.keys[count*d:])
	s.keys = s.keys[:n]
	n = copy(s.values, s.values[count*d:])
	s.values = s.values[:n]
}

// snapshot views the current prefix as a Preprocessed without copying,
// reusing the stream-owned structs so the decode hot path performs no heap
// allocation.
func (s *Stream) snapshot() *Preprocessed {
	d := s.engine.cfg.D
	hot := s.hotLen()
	s.keysMat = tensor.Matrix{Rows: hot, Cols: d, Data: s.keys[:hot*d]}
	s.valsMat = tensor.Matrix{Rows: hot, Cols: d, Data: s.values[:hot*d]}
	s.snap = Preprocessed{
		Keys:    &s.keysMat,
		Values:  &s.valsMat,
		Packed:  s.packed,
		Norms:   s.norms[:s.n],
		MaxNorm: s.maxNorm,
		Cold:    s.cold,
	}
	return &s.snap
}

// Rows returns per-token views of the appended key and value vectors.
// Hot-tail rows alias the stream's backing stores (quantized in place when
// the engine is quantized) and are valid only until the next Append;
// cold-prefix rows are dequantized into freshly allocated slices. Callers
// needing the prefix beyond the next Append — e.g. to materialize it onto
// the wire — must finish with the views first.
func (s *Stream) Rows() (keys, values [][]float32) {
	d := s.engine.cfg.D
	keys = make([][]float32, s.n)
	values = make([][]float32, s.n)
	cn := s.cold.N()
	for i := 0; i < cn; i++ {
		k := make([]float32, d)
		v := make([]float32, d)
		s.cold.Keys.DecodeInto(k, i)
		s.cold.Values.DecodeInto(v, i)
		keys[i], values[i] = k, v
	}
	for i := cn; i < s.n; i++ {
		keys[i] = s.keys[(i-cn)*d : (i-cn+1)*d]
		values[i] = s.values[(i-cn)*d : (i-cn+1)*d]
	}
	return keys, values
}

// Keys returns a copy of the appended key vectors, one row per token
// (cold-prefix rows dequantized). It is intended for one-shot uses —
// threshold calibration over the prefix a serving layer has accumulated —
// not the decode hot path.
func (s *Stream) Keys() [][]float32 {
	d := s.engine.cfg.D
	out := make([][]float32, s.n)
	cn := s.cold.N()
	for i := 0; i < cn; i++ {
		out[i] = make([]float32, d)
		s.cold.Keys.DecodeInto(out[i], i)
	}
	for i := cn; i < s.n; i++ {
		out[i] = append([]float32(nil), s.keys[(i-cn)*d:(i-cn+1)*d]...)
	}
	return out
}

// QueryLinearScan attends the single query vector q over the current
// prefix through the exact linear-scan backend — every prefix key, online
// softmax, no filter — writing the context vector into dst (grown only
// when capacity falls short, like QueryWith). The scan iterates the same
// logical rows with the same per-row float32 data whether a key is in the
// hot tail or the cold store (cold rows decode deterministically through
// the stream workspace), so a stream appended token-by-token answers
// bit-identically to one-shot ExactLinearScan over the materialized
// prefix, including across the cold-watermark demotion boundary. Zero
// steady-state heap allocations, matching the QueryWith contract.
func (s *Stream) QueryLinearScan(dst []float32, q []float32) ([]float32, QueryStats, error) {
	d := s.engine.cfg.D
	if s.n == 0 {
		return dst, QueryStats{}, fmt.Errorf("attention: query on an empty stream")
	}
	if len(q) != d {
		return dst, QueryStats{}, fmt.Errorf("attention: stream query dim %d, engine built for %d",
			len(q), d)
	}
	s.qMat = tensor.Matrix{Rows: 1, Cols: d, Data: q}
	res, err := s.engine.AttendLinearScanWith(s.ws, &s.qMat, s.snapshot())
	if err != nil {
		return dst, QueryStats{}, err
	}
	if cap(dst) < d {
		dst = make([]float32, d)
	}
	dst = dst[:d]
	copy(dst, res.Output.Row(0))
	return dst, QueryStats{Candidates: s.n, Fallback: false}, nil
}

// QueryStats reports one streamed query's work.
type QueryStats struct {
	// Candidates is the number of prefix keys that survived the filter.
	Candidates int
	// Fallback reports whether the filter selected nothing and the best
	// approximate key was used instead.
	Fallback bool
}

// Query attends the single query vector q over the current prefix with
// threshold t and returns the context vector. It is equivalent to calling
// Attend with a one-row query matrix against the prefix, but without
// re-preprocessing the keys.
func (s *Stream) Query(q []float32, t float64) ([]float32, QueryStats, error) {
	return s.QueryWith(nil, q, t)
}

// QueryWith is Query writing the context vector into dst, which is grown
// only when its capacity falls short of the head dimension and returned
// resliced to exactly d elements. A decode loop that recycles one buffer
// therefore performs zero steady-state heap allocations: the attend pass
// runs entirely inside the stream's workspace (the PR-2 zero-alloc path)
// and the output lands in the caller's memory.
func (s *Stream) QueryWith(dst []float32, q []float32, t float64) ([]float32, QueryStats, error) {
	d := s.engine.cfg.D
	if s.n == 0 {
		return dst, QueryStats{}, fmt.Errorf("attention: query on an empty stream")
	}
	if len(q) != d {
		return dst, QueryStats{}, fmt.Errorf("attention: stream query dim %d, engine built for %d",
			len(q), d)
	}
	s.qMat = tensor.Matrix{Rows: 1, Cols: d, Data: q}
	res, err := s.engine.AttendWith(s.ws, &s.qMat, s.snapshot(), t)
	if err != nil {
		return dst, QueryStats{}, err
	}
	// The workspace's output row is overwritten by the next call, so hand
	// the caller an owned copy in their buffer.
	if cap(dst) < d {
		dst = make([]float32, d)
	}
	dst = dst[:d]
	copy(dst, res.Output.Row(0))
	return dst, QueryStats{
		Candidates: res.CandidateCounts[0],
		Fallback:   res.FallbackQueries > 0,
	}, nil
}
