package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"elsa/internal/tensor"
)

// stdEncode is the reference encoder: encoding/base64 over the row's
// little-endian bytes.
func stdEncode(dst []byte, row []float32) []byte {
	raw := make([]byte, 0, 4*len(row))
	for _, f := range row {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(f))
	}
	return base64.StdEncoding.AppendEncode(dst, raw)
}

// stdDecode is the reference decoder: encoding/base64 into a scratch
// buffer, then one float32 per four bytes, noting the first one whose
// exponent is all ones.
func stdDecode(dst []float32, src []byte) ([]float32, int, error) {
	scratch := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(scratch, src)
	if err != nil {
		return nil, -1, fmt.Errorf("packed vector: %w", err)
	}
	if n%4 != 0 {
		return nil, -1, fmt.Errorf("packed vector is %d bytes, not a multiple of 4", n)
	}
	bad := -1
	for i := 0; i < n; i += 4 {
		bits := binary.LittleEndian.Uint32(scratch[i:])
		if bits&0x7f800000 == 0x7f800000 && bad < 0 {
			bad = i / 4
		}
		dst = append(dst, math.Float32frombits(bits))
	}
	return dst, bad, nil
}

// kernelModes runs f with the AVX2 kernels on (where the CPU has them)
// and off.
func kernelModes(t testing.TB, f func(mode string)) {
	saved := tensor.HasAVX2
	defer func() { tensor.HasAVX2 = saved }()
	if saved {
		f("avx2")
	}
	tensor.HasAVX2 = false
	f("go")
}

// specialBits are float32 bit patterns rows draw from: ±0, subnormals
// and the extremes of the finite range, then (from nonFiniteAt on) NaNs
// with payloads and ±Inf.
var specialBits = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x00400000,
	0x7f7fffff, 0xff7fffff, 0x00800000, 0x3f800000,
	0x7fc00000, 0xffc00001, 0x7f800001, 0x7fbfffff, 0x7f800000, 0xff800000,
}

const nonFiniteAt = 9

// testRow is a row of n floats: random bit patterns, with special ones
// planted at random positions, all finite if finite is set.
func testRow(rng *rand.Rand, n int, finite bool) []float32 {
	row := make([]float32, n)
	for i := range row {
		bits := rng.Uint32()
		if rng.Intn(4) == 0 {
			bits = specialBits[rng.Intn(len(specialBits))]
		}
		if finite && bits&0x7f800000 == 0x7f800000 {
			bits = specialBits[rng.Intn(nonFiniteAt)]
		}
		row[i] = math.Float32frombits(bits)
	}
	return row
}

// checkDecode compares DecodeRow against the reference on src, decoding
// after a one-float prefix into a backing of the given spare capacity.
func checkDecode(t testing.TB, label string, src []byte, spare int) {
	t.Helper()
	prefix := []float32{42}
	want, wantBad, wantErr := stdDecode(append([]float32(nil), prefix...), src)
	dst := append(make([]float32, 0, 1+spare), prefix...)
	got, bad, err := DecodeRow(dst, src)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: DecodeRow(%q) error %v, encoding/base64 %v", label, src, err, wantErr)
	}
	if err != nil {
		if got != nil || bad != -1 {
			t.Fatalf("%s: DecodeRow(%q) failed with out %v, bad %d: want nil, -1", label, src, got, bad)
		}
		return
	}
	if bad != wantBad {
		t.Fatalf("%s: DecodeRow(%q) bad %d, want %d", label, src, bad, wantBad)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: DecodeRow(%q) gave %d floats, want %d", label, src, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: DecodeRow(%q)[%d] = %#x, want %#x", label, src, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	if spare >= Floats(len(src)) && &got[0] != &dst[0] {
		t.Fatalf("%s: DecodeRow(%q) moved a backing that had room", label, src)
	}
}

// TestRowCodecMatchesStdlib holds AppendRow and DecodeRow to
// encoding/base64, byte for byte and bit for bit, with the AVX2 kernels
// and without: rows of 0–80 floats (every tail modulo the kernels' 6- and
// 8-float steps) of random and special bit patterns, and every position
// of encoded rows replaced by a byte outside the alphabet, or with CR/LF
// inserted.
func TestRowCodecMatchesStdlib(t *testing.T) {
	kernelModes(t, func(mode string) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= 80; n++ {
			for _, finite := range []bool{true, false} {
				row := testRow(rng, n, finite)
				label := fmt.Sprintf("%s n=%d", mode, n)
				prefix := []byte(`"x":[`)
				want := stdEncode(append([]byte(nil), prefix...), row)
				got := AppendRow(append([]byte(nil), prefix...), row)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: AppendRow = %q, encoding/base64 %q", label, got, want)
				}
				enc := want[len(prefix):]
				checkDecode(t, label, enc, Floats(len(enc)))
				checkDecode(t, label+" short backing", enc, 0)
			}
		}
		corrupt := []byte{'=', '\r', '\n', '-', '_', '"', ' ', 0x80}
		for _, n := range []int{1, 2, 6, 7, 8, 13, 24, 25, 64} {
			enc := stdEncode(nil, testRow(rng, n, false))
			for at := range enc {
				for _, c := range corrupt {
					bad := append([]byte(nil), enc...)
					bad[at] = c
					checkDecode(t, fmt.Sprintf("%s n=%d %q at %d", mode, n, c, at), bad, Floats(len(bad)))
				}
				for _, ins := range []string{"\r\n", "\n", "\r\n\r\n"} {
					bad := append(append(append([]byte(nil), enc[:at]...), ins...), enc[at:]...)
					checkDecode(t, fmt.Sprintf("%s n=%d %q before %d", mode, n, ins, at), bad, Floats(len(bad)))
				}
			}
		}
		// Non-canonical padding bits, which encoding/base64 accepts.
		for _, src := range []string{"AACAPx==", "AACAPw==", "AACAP/8=", "AAAAAAAAAAA=", "AAAAAAAAAAB="} {
			checkDecode(t, mode+" "+src, []byte(src), 4)
		}
	})
}

// TestDecodeRowKernelRefusesEveryNonAlphabetByte feeds every byte value
// into each position of a 32-character block, the kernel's whole step,
// and holds DecodeRow to the reference.
func TestDecodeRowKernelRefusesEveryNonAlphabetByte(t *testing.T) {
	enc := stdEncode(nil, testRow(rand.New(rand.NewSource(2)), 12, true)) // 64 characters
	kernelModes(t, func(mode string) {
		for c := 0; c < 256; c++ {
			for _, at := range []int{0, 7, 15, 16, 31, 32, 59} {
				bad := append([]byte(nil), enc...)
				bad[at] = byte(c)
				checkDecode(t, fmt.Sprintf("%s %#x at %d", mode, c, at), bad, Floats(len(bad)))
			}
		}
	})
}

// FuzzRowCodec decodes arbitrary bytes, and encodes them read as
// float32s, with the kernels and without, against encoding/base64.
func FuzzRowCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 6, 7, 8, 17, 64} {
		f.Add(stdEncode(nil, testRow(rng, n, false)))
	}
	f.Add([]byte("AACAPw==\r\n"))
	f.Add([]byte("AACA=w=="))
	f.Fuzz(func(t *testing.T, src []byte) {
		row := make([]float32, len(src)/4)
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
		want := stdEncode(nil, row)
		kernelModes(t, func(mode string) {
			checkDecode(t, mode, src, Floats(len(src)))
			checkDecode(t, mode+" encoded", want, Floats(len(want)))
			if got := AppendRow(nil, row); !bytes.Equal(got, want) {
				t.Fatalf("%s: AppendRow = %q, encoding/base64 %q", mode, got, want)
			}
		})
	})
}

// BenchmarkRowCodec times one 64-float row (the paper's head dimension)
// and a 512×64 matrix's worth of rows, encoded and decoded, with the
// AVX2 kernels and with encoding/base64 alone.
func BenchmarkRowCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{1, 512} {
		m := make([][]float32, rows)
		var enc [][]byte
		for i := range m {
			m[i] = testRow(rng, 64, true)
			enc = append(enc, stdEncode(nil, m[i]))
		}
		kernelModes(b, func(mode string) {
			b.Run(fmt.Sprintf("rows=%d/encode/%s", rows, mode), func(b *testing.B) {
				buf := make([]byte, 0, rows*len(enc[0]))
				b.SetBytes(int64(rows * len(enc[0])))
				for i := 0; i < b.N; i++ {
					buf = buf[:0]
					for _, r := range m {
						buf = AppendRow(buf, r)
					}
				}
			})
			b.Run(fmt.Sprintf("rows=%d/decode/%s", rows, mode), func(b *testing.B) {
				backing := make([]float32, 0, rows*64)
				b.SetBytes(int64(rows * len(enc[0])))
				for i := 0; i < b.N; i++ {
					backing = backing[:0]
					for _, src := range enc {
						var err error
						if backing, _, err = DecodeRow(backing, src); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}
