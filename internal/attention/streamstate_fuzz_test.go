package attention

import (
	"bytes"
	"math/rand"
	"testing"

	"elsa/internal/tensor"
)

// FuzzImportStream feeds arbitrary bytes to ImportStream on a float and
// a Quantized engine. It must never panic. A blob it accepts must yield
// a stream whose Export imports again to the same bytes, and that takes
// one Append and one Query (an error is fine, a panic is not).
//
// The seed corpus is Export blobs of float and Quantized streams, hot
// and with a cold prefix, plus truncations of each.
func FuzzImportStream(f *testing.F) {
	engines := map[bool]*Engine{}
	for _, quantized := range []bool{false, true} {
		e, err := NewEngine(Config{D: 16, Seed: 9, Quantized: quantized, BiasSamples: 300})
		if err != nil {
			f.Fatal(err)
		}
		engines[quantized] = e
	}
	rng := rand.New(rand.NewSource(9))
	k := tensor.RandomNormal(rng, 24, 16)
	v := tensor.RandomNormal(rng, 24, 16)
	for _, quantized := range []bool{false, true} {
		for _, watermark := range []int{0, 6} {
			for _, n := range []int{0, 1, 24} {
				st := engines[quantized].NewStreamCold(0, watermark)
				for i := 0; i < n; i++ {
					if err := st.Append(k.Row(i), v.Row(i)); err != nil {
						f.Fatal(err)
					}
				}
				blob := st.Export()
				f.Add(quantized, blob)
				for _, cut := range []int{4, 24, 40, len(blob) / 2, len(blob) - 1} {
					if cut >= 0 && cut < len(blob) {
						f.Add(quantized, blob[:cut])
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, quantized bool, blob []byte) {
		e := engines[quantized]
		st, err := e.ImportStream(blob)
		if err != nil {
			return
		}
		out := st.Export()
		again, err := e.ImportStream(out)
		if err != nil {
			t.Fatalf("ImportStream refuses the Export of a stream it accepted: %v", err)
		}
		if !bytes.Equal(again.Export(), out) {
			t.Fatal("Export∘ImportStream is not a fixpoint after one round")
		}
		if err := st.Append(k.Row(0), v.Row(0)); err != nil {
			return
		}
		st.Query(k.Row(1), 0.5)
	})
}
