package elsa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// engineOutputDigest is the SHA-256 of every output bit and candidate
// statistic of digestSuite. Any change to the engine's arithmetic — a
// reordered sum, a fused multiply-add, a different candidate set — moves
// it; a kernel rewrite that keeps each output element's floating-point
// operations and their order leaves it unchanged.
const engineOutputDigest = "f1d7b008458020d88bb9b836139058bcbe573b00ba6ba2e0b0535c5efa7ef1c3"

// digestWriter feeds float bits and counts into a running hash.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *digestWriter) int(v int) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(int64(v)))
	w.h.Write(w.buf[:])
}

func (w *digestWriter) row(r []float32) {
	for _, x := range r {
		binary.LittleEndian.PutUint32(w.buf[:4], math.Float32bits(x))
		w.h.Write(w.buf[:4])
	}
}

func (w *digestWriter) output(o *Output) {
	for _, r := range o.Context {
		w.row(r)
	}
	for _, c := range o.CandidatesPerQuery {
		w.int(c)
	}
	w.int(o.FallbackQueries)
}

func (w *digestWriter) stream(out []float32, st StreamStats) {
	w.row(out)
	w.int(st.Candidates)
	if st.Fallback {
		w.int(1)
	} else {
		w.int(0)
	}
}

// digestSuite runs a fixed-seed suite through every engine entry point
// whose kernels the digest pins: Attend at the exact threshold and three
// calibrated operating points, the linear-scan backend, and resident and
// cold-split streams queried as they grow, on float and Quantized engines
// at the default head dimension and at one that is not a multiple of 8.
func digestSuite(t *testing.T, w *digestWriter) {
	for _, d := range []int{64, 20} {
		for _, quantized := range []bool{false, true} {
			eng := newEngine(t, Options{HeadDim: d, Quantized: quantized, Seed: 7})
			rng := rand.New(rand.NewSource(int64(1000 + d)))
			cq, ck, _ := genData(rng, 48, 96, d)
			q, k, v := genData(rng, 24, 96, d)
			thrs := []Threshold{Exact()}
			for _, p := range []float64{0.5, 1, 2} {
				thr, err := eng.Calibrate(p, []Sample{{Q: cq, K: ck}})
				if err != nil {
					t.Fatal(err)
				}
				thrs = append(thrs, thr)
			}
			for _, thr := range thrs {
				out, err := eng.Attend(q, k, v, thr)
				if err != nil {
					t.Fatal(err)
				}
				w.output(out)
			}
			out, err := eng.AttendLinearScan(q, k, v)
			if err != nil {
				t.Fatal(err)
			}
			w.output(out)
			for _, st := range []*Stream{eng.NewStream(0), eng.NewStreamCold(0, 16)} {
				var dst []float32
				for i := range k {
					if err := st.Append(k[i], v[i]); err != nil {
						t.Fatal(err)
					}
					if i%8 != 7 {
						continue
					}
					for _, thr := range thrs {
						var stats StreamStats
						dst, stats, err = st.QueryWith(dst, q[i%len(q)], thr)
						if err != nil {
							t.Fatal(err)
						}
						w.stream(dst, stats)
					}
				}
			}
		}
	}
}

// TestEngineOutputDigest pins the engine's outputs bit for bit across
// kernel rewrites. It runs on amd64 only: Go may fuse multiply-adds on
// other architectures (arm64 does), which changes the low bits.
func TestEngineOutputDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output digest is pinned for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	w := &digestWriter{h: sha256.New()}
	digestSuite(t, w)
	if got := hex.EncodeToString(w.h.Sum(nil)); got != engineOutputDigest {
		t.Fatalf("engine output digest %s, want %s", got, engineOutputDigest)
	}
}
