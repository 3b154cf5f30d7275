package elsa

import (
	"fmt"

	"elsa/internal/attention"
)

// Stream supports autoregressive decoding: keys/values are appended one
// token at a time (each new key is hashed incrementally through the
// Kronecker fast path) and queries attend over the prefix so far.
// A Stream is not safe for concurrent use.
type Stream struct {
	inner *attention.Stream
}

// NewStream creates an empty stream with storage preallocated for
// capacity tokens.
func (e *Engine) NewStream(capacity int) *Stream {
	return &Stream{inner: e.engine.NewStream(capacity)}
}

// NewStreamCold is NewStream with a cold watermark: once the hot f32 tail
// reaches twice the watermark, the oldest tokens' K/V rows demote in one
// chunk to the accelerator's bit-packed Q(1,5,3) representation (9 bits
// per element instead of 32), bounding resident f32 state to the tail.
// Hashes and norms stay at full precision, so candidate selection is
// unchanged; on a quantized engine demotion is bit-lossless, and on a
// float engine the demoted prefix answers within the Q(1,5,3) rounding
// bound. watermark <= 0 keeps the whole stream hot, identical to
// NewStream.
func (e *Engine) NewStreamCold(capacity, watermark int) *Stream {
	return &Stream{inner: e.engine.NewStreamCold(capacity, watermark)}
}

// Len returns the number of appended tokens.
func (s *Stream) Len() int { return s.inner.Len() }

// ColdLen returns how many of the oldest tokens have been demoted to the
// bit-packed cold representation.
func (s *Stream) ColdLen() int { return s.inner.ColdLen() }

// StateBytes reports the resident payload bytes of the stream's per-token
// state (hot K/V, packed hashes, norms, and the bit-packed cold store).
func (s *Stream) StateBytes() int { return s.inner.StateBytes() }

// Export serializes the stream's full state — hot tail, cold prefix,
// hashes, norms, watermark — into a versioned, length-prefixed binary
// blob. Importing the blob into any engine with the same resolved Options
// (ImportStream) reproduces the stream bit-identically: same outputs,
// same candidate decisions, byte-identical re-export.
func (s *Stream) Export() []byte { return s.inner.Export() }

// ImportStream rebuilds a stream from an Export blob. The engine must
// have the same resolved options as the exporter (the blob carries a
// config fingerprint that is checked), making the pair the session
// analogue of Snapshot/Restore: portable state that moves between
// processes and hosts without recomputing hashes or norms.
func (e *Engine) ImportStream(data []byte) (*Stream, error) {
	inner, err := e.engine.ImportStream(data)
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	return &Stream{inner: inner}, nil
}

// CheckAppend reports the error Append would return for key and value
// on a stream of e, without appending anything: a caller that must
// append a batch of rows whole checks every row first.
func (e *Engine) CheckAppend(key, value []float32) error {
	if err := e.engine.CheckAppend(key, value); err != nil {
		return fmt.Errorf("elsa: %w", err)
	}
	return nil
}

// Append adds one token's key and value vectors.
func (s *Stream) Append(key, value []float32) error {
	if err := s.inner.Append(key, value); err != nil {
		return fmt.Errorf("elsa: %w", err)
	}
	return nil
}

// StreamStats reports one streamed query's work.
type StreamStats struct {
	// Candidates is the number of prefix keys computed exactly.
	Candidates int
	// Fallback reports whether the filter selected nothing.
	Fallback bool
}

// Query attends q over the current prefix with the given threshold.
func (s *Stream) Query(q []float32, thr Threshold) ([]float32, StreamStats, error) {
	return s.QueryWith(nil, q, thr)
}

// QueryWith is Query writing the context vector into dst (grown only when
// too small), so an autoregressive decode loop that recycles one output
// buffer runs allocation-free: the attend pass reuses the stream's
// workspace end to end.
func (s *Stream) QueryWith(dst []float32, q []float32, thr Threshold) ([]float32, StreamStats, error) {
	out, st, err := s.inner.QueryWith(dst, q, thr.T)
	if err != nil {
		return dst, StreamStats{}, fmt.Errorf("elsa: %w", err)
	}
	return out, StreamStats{Candidates: st.Candidates, Fallback: st.Fallback}, nil
}

// QueryOverrides is QueryWith with the query's Overrides resolved
// against fallback — the streaming analogue of BatchOp.Overrides, so a
// decode loop and a batch dispatch name per-op operating-point knobs the
// same way the serving envelope does. The zero Overrides runs fallback.
// A non-auto ov.Backend routes the query through the selected exact
// backend instead (BackendLinearScan streams online softmax over the
// prefix; BackendScores pins the default exact pipeline), rejecting
// approximate operating points.
func (s *Stream) QueryOverrides(dst []float32, q []float32, ov Overrides, fallback Threshold) ([]float32, StreamStats, error) {
	if ov.Backend != BackendAuto {
		if err := ov.checkBackend(); err != nil {
			return dst, StreamStats{}, fmt.Errorf("elsa: %w", err)
		}
		if ov.wantsLinearScan() {
			return s.QueryLinearScan(dst, q)
		}
		return s.QueryWith(dst, q, ov.Resolve(Exact()))
	}
	return s.QueryWith(dst, q, ov.Resolve(fallback))
}

// QueryLinearScan attends q over the current prefix through the exact
// linear-scan backend: online softmax in one pass over hot and cold rows,
// no filter, no n×n state. The answer is bit-identical to one-shot
// AttendLinearScan over the appended keys and values, including
// across cold-watermark demotions, and a decode loop that recycles dst
// allocates nothing in steady state.
func (s *Stream) QueryLinearScan(dst []float32, q []float32) ([]float32, StreamStats, error) {
	out, st, err := s.inner.QueryLinearScan(dst, q)
	if err != nil {
		return dst, StreamStats{}, fmt.Errorf("elsa: %w", err)
	}
	return out, StreamStats{Candidates: st.Candidates, Fallback: st.Fallback}, nil
}

// Keys returns a copy of the appended key vectors, one row per token —
// the prefix sample a serving layer can calibrate a threshold from
// (Calibrate with Q = K = Keys()). Not intended for the decode hot path.
func (s *Stream) Keys() [][]float32 { return s.inner.Keys() }

// AttendBlockwise runs approximate attention over sequences longer than
// one hardware invocation by decomposing the keys into blocks of at most
// blockSize, each filtered against its own key-norm maximum, and taking
// one softmax over the union of the blocks' candidates — the composition
// with Longformer/BigBird-style decompositions that the paper's §V-E
// describes. One block gives Attend's output bit for bit.
func (e *Engine) AttendBlockwise(q, k, v [][]float32, blockSize int, thr Threshold) (*Output, error) {
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
	res, err := e.engine.BlockwiseAttend(qm, km, vm, blockSize, thr.T)
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
