package elsa

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// loadAllocBound is the most a snapshot or threshold load may allocate
// for an input of n bytes: a fixed allowance plus a constant factor of
// the input. Anything sized by a header field rather than by the bytes
// that back it breaks the bound.
func loadAllocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// addDamagedSeeds adds good and copies of it cut short or with a byte
// changed at a few places.
func addDamagedSeeds(f *testing.F, good []byte) {
	f.Add(good)
	for _, cut := range []int{0, 1, len(good) / 3, len(good) / 2, len(good) - 2} {
		if cut < len(good) {
			f.Add(good[:cut])
		}
	}
	for i, pos := range []int{1, len(good) / 4, len(good) / 2, 3 * len(good) / 4} {
		if pos < len(good) {
			bad := bytes.Clone(good)
			bad[pos] ^= byte(0x21 + i)
			f.Add(bad)
		}
	}
}

// FuzzLoadThreshold holds LoadThreshold to failing closed on arbitrary
// bytes: no panic, an allocation bounded by the input, and a threshold
// it accepts saves back and loads to the same value, bit for bit.
func FuzzLoadThreshold(f *testing.F) {
	for _, thr := range []Threshold{{P: 1, T: 0.3, Queries: 64}, {P: 0.5, T: -1.25}, Exact()} {
		var buf bytes.Buffer
		if err := SaveThreshold(&buf, thr); err != nil {
			f.Fatal(err)
		}
		addDamagedSeeds(f, buf.Bytes())
	}
	f.Add([]byte(`{"version":1,"p":-0,"t":1e308,"queries":9223372036854775807}`))
	f.Add([]byte(`{"version":1,"p":1,"t":1}{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var thr Threshold
		var err error
		if n := allocated(func() { thr, err = LoadThreshold(bytes.NewReader(data)) }); n > loadAllocBound(len(data)) {
			t.Fatalf("load of %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveThreshold(&buf, thr); err != nil {
			t.Fatalf("accepted threshold %+v does not save: %v", thr, err)
		}
		again, err := LoadThreshold(&buf)
		if err != nil {
			t.Fatalf("saved threshold %+v does not load: %v", thr, err)
		}
		if math.Float64bits(again.P) != math.Float64bits(thr.P) ||
			math.Float64bits(again.T) != math.Float64bits(thr.T) || again.Queries != thr.Queries {
			t.Fatalf("round trip changed the threshold: %+v -> %+v", thr, again)
		}
	})
}

// FuzzLoadEngine holds LoadEngine (decode, then Restore) to failing
// closed on arbitrary bytes: no panic, an allocation bounded by the
// input, and an engine it accepts saves back and loads to the same
// snapshot.
func FuzzLoadEngine(f *testing.F) {
	for _, opts := range []Options{
		{HeadDim: 8, Seed: 3},                   // (2×2)^⊗3
		{HeadDim: 8, HashBits: 12, Seed: 4},     // a full batch and a partial one
		{HeadDim: 16, Seed: 5, Quantized: true}, // (4×4)^⊗2
	} {
		eng, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			f.Fatal(err)
		}
		addDamagedSeeds(f, buf.Bytes())
	}
	f.Add([]byte(`{"version":1,"options":{"HeadDim":1},"bias":0,"batches":[[[[]]]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var eng *Engine
		var err error
		if n := allocated(func() { eng, err = LoadEngine(bytes.NewReader(data)) }); n > loadAllocBound(len(data)) {
			t.Fatalf("load of %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatalf("accepted engine does not save: %v", err)
		}
		again, err := LoadEngine(&buf)
		if err != nil {
			t.Fatalf("saved engine does not load: %v", err)
		}
		if want, got := eng.Snapshot(), again.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
		}
	})
}
