package attention

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"elsa/internal/fixed"
	"elsa/internal/srp"
)

// Stream state wire format (version 1), all little-endian:
//
//	magic    uint32  "ELSS"
//	version  uint32
//	fprint   uint64  engine-config fingerprint (FNV-1a of the resolved config)
//	d, k     uint32  head dim and hash width, for error messages
//	sections         each a uint64 element count followed by the elements:
//	  meta       4×uint64: n, coldN, watermark, maxNorm (float64 bits)
//	  norms      n float64 bit patterns
//	  hashes     n·W uint64 packed hash words
//	  hot keys   hotN·d float32 bit patterns
//	  hot values hotN·d float32 bit patterns
//	  cold keys  cold arena words (uint64)
//	  cold vals  cold arena words (uint64)
//
// Every numeric field is serialized as its IEEE bit pattern, so a
// round-trip through Export/ImportStream is bit-exact for the hot tail,
// the cold arena, hashes and norms alike.
const (
	streamStateMagic   = 0x454c5353 // "SSLE" on the wire; spells ELSS read big-endian
	streamStateVersion = 1
)

// configFingerprint identifies the engine configuration a stream state was
// exported under. Two engines with equal resolved configs are
// deterministic clones (same seed draws the same projections), so matching
// fingerprints guarantee the importing engine reproduces the exporter's
// hashes and scores bit-identically.
func (e *Engine) configFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", e.cfg)
	return h.Sum64()
}

type stateWriter struct{ buf []byte }

func (w *stateWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *stateWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *stateWriter) u64s(vals []uint64) {
	w.u64(uint64(len(vals)))
	for _, v := range vals {
		w.u64(v)
	}
}

func (w *stateWriter) f32s(vals []float32) {
	w.u64(uint64(len(vals)))
	for _, v := range vals {
		w.u32(math.Float32bits(v))
	}
}

func (w *stateWriter) f64s(vals []float64) {
	w.u64(uint64(len(vals)))
	for _, v := range vals {
		w.u64(math.Float64bits(v))
	}
}

type stateReader struct {
	buf []byte
	off int
	err error
}

func (r *stateReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.err = fmt.Errorf("attention: stream state truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = fmt.Errorf("attention: stream state truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// count reads a section's element count and bounds it by what the
// remaining bytes can actually hold, so a corrupt length cannot drive a
// huge allocation.
func (r *stateReader) count(elemBytes int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.buf)-r.off)/elemBytes) {
		r.err = fmt.Errorf("attention: stream state section of %d elements overruns the buffer", n)
		return 0
	}
	return int(n)
}

func (r *stateReader) u64s() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func (r *stateReader) f32s() []float32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(r.u32())
	}
	return out
}

func (r *stateReader) f64s() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(r.u64())
	}
	return out
}

// Export serializes the stream's full per-token state — hot f32 tail,
// bit-packed cold prefix, hash arena, norms and the watermark — into the
// versioned binary stream-state format. The blob is self-contained modulo
// the engine: importing it into any engine with the same resolved config
// (same seed, dims, quantization) reproduces the stream bit-identically.
func (s *Stream) Export() []byte {
	d := s.engine.cfg.D
	hot := s.hotLen()
	w := &stateWriter{buf: make([]byte, 0, 64+s.StateBytes()+s.n*8)}
	w.u32(streamStateMagic)
	w.u32(streamStateVersion)
	w.u64(s.engine.configFingerprint())
	w.u32(uint32(d))
	w.u32(uint32(s.engine.cfg.K))
	w.u64(4)
	w.u64(uint64(s.n))
	w.u64(uint64(s.cold.N()))
	w.u64(uint64(s.watermark))
	w.u64(math.Float64bits(s.maxNorm))
	w.f64s(s.norms[:s.n])
	w.u64s(s.packed.Words)
	w.f32s(s.keys[:hot*d])
	w.f32s(s.values[:hot*d])
	if s.cold != nil {
		w.u64s(s.cold.Keys.Words())
		w.u64s(s.cold.Values.Words())
	} else {
		w.u64(0)
		w.u64(0)
	}
	return w.buf
}

// ImportStream rebuilds a stream from a blob produced by Export. The blob
// must have been exported under an engine with the same resolved config;
// the embedded fingerprint is checked so state never silently lands on an
// engine with different projections. The imported stream is bit-identical
// to the exporter — hot tail, cold prefix, hashes, norms and watermark.
func (e *Engine) ImportStream(data []byte) (*Stream, error) {
	r := &stateReader{buf: data}
	if magic := r.u32(); r.err == nil && magic != streamStateMagic {
		return nil, fmt.Errorf("attention: not a stream state blob (magic %#x)", magic)
	}
	if version := r.u32(); r.err == nil && version != streamStateVersion {
		return nil, fmt.Errorf("attention: unsupported stream state version %d (want %d)", version, streamStateVersion)
	}
	if fp := r.u64(); r.err == nil && fp != e.configFingerprint() {
		return nil, fmt.Errorf("attention: stream state was exported under a different engine configuration")
	}
	d, k := int(r.u32()), int(r.u32())
	if r.err == nil && (d != e.cfg.D || k != e.cfg.K) {
		return nil, fmt.Errorf("attention: stream state for d=%d k=%d, engine built for d=%d k=%d",
			d, k, e.cfg.D, e.cfg.K)
	}
	if metaN := r.count(8); r.err == nil && metaN != 4 {
		return nil, fmt.Errorf("attention: stream state meta section has %d fields, want 4", metaN)
	}
	n := int(r.u64())
	coldN := int(r.u64())
	watermark := int(r.u64())
	maxNorm := math.Float64frombits(r.u64())
	norms := r.f64s()
	hashWords := r.u64s()
	hotKeys := r.f32s()
	hotValues := r.f32s()
	coldKeyWords := r.u64s()
	coldValWords := r.u64s()
	if r.err != nil {
		return nil, r.err
	}

	hot := n - coldN
	wph := srp.WordsPerHash(e.cfg.K)
	switch {
	case n < 0 || coldN < 0 || hot < 0:
		return nil, fmt.Errorf("attention: stream state with n=%d coldN=%d", n, coldN)
	case len(norms) != n:
		return nil, fmt.Errorf("attention: stream state has %d norms for %d tokens", len(norms), n)
	case len(hashWords) != n*wph:
		return nil, fmt.Errorf("attention: stream state has %d hash words, want %d", len(hashWords), n*wph)
	case len(hotKeys) != hot*e.cfg.D || len(hotValues) != hot*e.cfg.D:
		return nil, fmt.Errorf("attention: stream state hot tail has %d/%d elements, want %d",
			len(hotKeys), len(hotValues), hot*e.cfg.D)
	}
	// A hash sets no bit at or past k, so no Hamming distance exceeds k,
	// the last entry of the cos LUT.
	if r := e.cfg.K % 64; r != 0 {
		spare := ^uint64(0) << r
		for i := wph - 1; i < len(hashWords); i += wph {
			if hashWords[i]&spare != 0 {
				return nil, fmt.Errorf("attention: stream state hash %d sets a bit past k=%d", i/wph, e.cfg.K)
			}
		}
	}

	s := &Stream{
		engine:    e,
		keys:      hotKeys,
		values:    hotValues,
		packed:    &srp.PackedHashes{K: e.cfg.K, W: wph, N: n, Words: hashWords},
		norms:     norms,
		maxNorm:   maxNorm,
		n:         n,
		watermark: watermark,
		ws:        NewWorkspace(e),
	}
	if hashWords == nil {
		s.packed.Words = make([]uint64, 0)
	}
	if coldN > 0 {
		ck, err := fixed.PackedCodesFromWords(fixed.QKV, e.cfg.D, coldN, coldKeyWords)
		if err != nil {
			return nil, fmt.Errorf("attention: stream state cold keys: %w", err)
		}
		cv, err := fixed.PackedCodesFromWords(fixed.QKV, e.cfg.D, coldN, coldValWords)
		if err != nil {
			return nil, fmt.Errorf("attention: stream state cold values: %w", err)
		}
		s.cold = &ColdPrefix{Keys: ck, Values: cv}
	}
	if s.keys == nil {
		s.keys = make([]float32, 0)
	}
	if s.values == nil {
		s.values = make([]float32, 0)
	}
	if s.norms == nil {
		s.norms = make([]float64, 0)
	}
	return s, nil
}
