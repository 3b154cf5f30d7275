package client_test

import (
	"math"
	"testing"

	"elsa/serve/client"
)

// TestPackRowsRoundTrip pins the packed row codec: PackRows is PackVec
// per row, and UnpackRows gives back every bit, including -0, NaN
// payloads and infinities, for ragged and empty rows alike.
func TestPackRowsRoundTrip(t *testing.T) {
	m := [][]float32{
		{1, 0, float32(math.Inf(1)), float32(math.Inf(-1))},
		{},
		{math.Float32frombits(0x7fc00001), math.SmallestNonzeroFloat32, math.MaxFloat32},
		{0.1},
	}
	m[0][1] = float32(math.Copysign(0, -1))
	packed := client.PackRows(m)
	for i, row := range m {
		if packed[i] != client.PackVec(row) {
			t.Errorf("row %d: PackRows %q, PackVec %q", i, packed[i], client.PackVec(row))
		}
	}
	got, err := client.UnpackRows(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("%d rows back, want %d", len(got), len(m))
	}
	for i := range m {
		if len(got[i]) != len(m[i]) {
			t.Fatalf("row %d: %d floats back, want %d", i, len(got[i]), len(m[i]))
		}
		for j := range m[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(m[i][j]) {
				t.Errorf("row %d col %d: bits %#x, want %#x", i, j, math.Float32bits(got[i][j]), math.Float32bits(m[i][j]))
			}
		}
	}
	// Rows share one backing array; appending to one must not clobber
	// the next.
	got[0] = append(got[0], 42)
	if math.Float32bits(got[2][0]) != 0x7fc00001 {
		t.Error("append to row 0 overwrote row 2")
	}

	for _, bad := range []string{"AAA", "AAA=", "!!!!"} {
		if _, err := client.UnpackRows([]string{"AACAPw==", bad}); err == nil {
			t.Errorf("UnpackRows accepted %q", bad)
		}
	}
}
