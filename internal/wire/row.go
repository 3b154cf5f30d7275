// Package wire owns the serving API's wire format: the v1 request and
// reply bodies (schema.go), and the packed-row format inside them. A row
// of float32s travels as the padded standard base64 of its little-endian
// bytes, one JSON string per row (the qp/kp/vp members of an attend or
// append op, a step wave's packed query and every context_packed reply).
// JSON float text costs a strconv parse per element; the packed form
// round-trips every bit, NaN payloads and -0 included.
//
// AppendRow and DecodeRow are the only encoder and decoder of the
// format. Their output is byte for byte what encoding/base64 gives, and
// a row encoding/base64 refuses is refused with the same error. On amd64
// hosts with AVX2 (tensor.HasAVX2) the bulk of a row runs through
// assembly kernels that take 24 bytes to 32 characters per step and
// back. encoding/base64 encodes the last group or two; a table decodes
// the last quanta. A row holding anything but the alphabet and its
// final padding ('=' elsewhere, CR/LF, any other byte) decodes again
// from the start through encoding/base64, which decides its error or,
// for CR/LF, skips them.
package wire

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"elsa/internal/tensor"
)

// Floats is how many float32s a packed row of n base64 bytes can hold at
// most: three bytes per four characters, four bytes per float. Decoders
// size their backing by it, so a body buys at most 3/16 of its base64
// length in floats.
func Floats(n int) int { return base64.StdEncoding.DecodedLen(n) / 4 }

// AppendRow appends the packed form of row to dst: exactly
// base64.StdEncoding.AppendEncode of row's little-endian bytes.
func AppendRow(dst []byte, row []float32) []byte {
	n := base64.StdEncoding.EncodedLen(4 * len(row))
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	if tensor.HasAVX2 && len(row) >= 7 {
		// The kernel stops at a multiple of 3 bytes, where base64's
		// groups begin anew, within the last two floats.
		b := encodeAVX2(&out[0], &row[0], 4*len(row))
		var last [8]byte
		binary.LittleEndian.PutUint32(last[:], math.Float32bits(row[len(row)-2]))
		binary.LittleEndian.PutUint32(last[4:], math.Float32bits(row[len(row)-1]))
		base64.StdEncoding.Encode(out[b/3*4:], last[8-(4*len(row)-b):])
		return dst[:len(dst)+n]
	}
	// 48 floats are 192 bytes, a multiple of 3, so only the last chunk
	// carries padding.
	var le [4 * 48]byte
	for len(row) > 0 {
		k := min(len(row), 48)
		for i, f := range row[:k] {
			binary.LittleEndian.PutUint32(le[4*i:], math.Float32bits(f))
		}
		base64.StdEncoding.Encode(out, le[:4*k])
		out, row = out[base64.StdEncoding.EncodedLen(4*k):], row[k:]
	}
	return dst[:len(dst)+n]
}

// DecodeRow appends the float32s of the packed row src to dst. bad is
// the index in the row of its first element whose exponent is all ones
// (Inf or NaN), or -1. A row encoding/base64 refuses, or one whose bytes
// are not a whole number of floats, is an error with the /v1/attend
// wire contract's text, and out is then nil.
//
// The floats are decoded straight into dst's spare capacity, grown to
// Floats(len(src)) if need be.
func DecodeRow(dst []float32, src []byte) (out []float32, bad int, err error) {
	if len(src) <= 4 || len(src)%4 != 0 {
		// Four characters hold no whole float; a length off the
		// quantum is an error or holds CR/LF: encoding/base64 decides.
		return decodeStd(dst, src)
	}
	start := len(dst)
	dst = slices.Grow(dst, Floats(len(src)))
	spare := dst[start:cap(dst)]
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&spare[0])), 4*len(spare))

	// All but the last (possibly padded) quantum must be plain
	// alphabet, and the last may hold only the one or two '=' that end
	// the row: the kernel takes the rest if it fills a 32-character
	// block, a table otherwise, and a table the last quantum. Anything
	// else (CR/LF, a byte outside the alphabet, padding elsewhere) goes
	// through encoding/base64 alone, for its error offset and CR/LF rules.
	body := src[:len(src)-4]
	chars, nonFinite := 0, false
	if tensor.HasAVX2 && len(body) >= 32 {
		if chars, nonFinite = decodeAVX2(&spare[0], &body[0], len(body)); chars < len(body) {
			return decodeStd(dst[:start], src)
		}
	}
	nb := chars / 4 * 3
	for i := chars; i < len(body); i += 4 {
		q := body[i : i+4]
		a, b, c, d := sextet[q[0]], sextet[q[1]], sextet[q[2]], sextet[q[3]]
		if (a|b|c|d)&0xc0 != 0 {
			return decodeStd(dst[:start], src)
		}
		v := uint32(a)<<18 | uint32(b)<<12 | uint32(c)<<6 | uint32(d)
		raw[nb], raw[nb+1], raw[nb+2] = byte(v>>16), byte(v>>8), byte(v)
		nb += 3
	}
	// encoding/base64 without Strict ignores the bits a padded quantum
	// leaves over.
	q := src[len(src)-4:]
	a, b, c, d, m := sextet[q[0]], sextet[q[1]], sextet[q[2]], sextet[q[3]], 3
	switch {
	case q[2] == '=' && q[3] == '=':
		c, d, m = 0, 0, 1
	case q[3] == '=':
		d, m = 0, 2
	}
	if (a|b|c|d)&0xc0 != 0 {
		return decodeStd(dst[:start], src)
	}
	if (nb+m)%4 != 0 {
		return nil, -1, fmt.Errorf("packed vector is %d bytes, not a multiple of 4", nb+m)
	}
	v := uint32(a)<<18 | uint32(b)<<12 | uint32(c)<<6 | uint32(d)
	last := [3]byte{byte(v >> 16), byte(v >> 8), byte(v)}
	nb += copy(raw[nb:], last[:m])

	// The kernel checked the exponents of its whole blocks' floats; the
	// rest, or every float when one of those was not finite, are read
	// here as little-endian words, which also orders them on a
	// big-endian host.
	out = dst[:start+nb/4]
	row := out[start:]
	from := 0
	if !nonFinite {
		from = chars / 32 * 6
	}
	bad = -1
	for i := from; i < len(row); i++ {
		bits := binary.LittleEndian.Uint32(raw[4*i:])
		row[i] = math.Float32frombits(bits)
		if bits&0x7f800000 == 0x7f800000 && bad < 0 {
			bad = i
		}
	}
	return out, bad, nil
}

// DecodeRows decodes each packed row with DecodeRow into one float32
// backing sized from the encoded lengths, so allocation is bounded by the
// input and does not grow per row. Rows may differ in length; shape
// checks are the caller's. A row DecodeRow refuses is an error naming
// it, reported ahead of any row's non-finite elements; badRow and badCol
// locate the first non-finite element, or are -1.
func DecodeRows(packed []string) (rows [][]float32, badRow, badCol int, err error) {
	floats := 0
	for _, s := range packed {
		floats += Floats(len(s))
	}
	backing := make([]float32, 0, floats)
	rows = make([][]float32, len(packed))
	badRow, badCol = -1, -1
	for i, s := range packed {
		start := len(backing)
		var bad int
		if backing, bad, err = DecodeRow(backing, []byte(s)); err != nil {
			return nil, -1, -1, fmt.Errorf("row %d: %w", i, err)
		}
		if bad >= 0 && badRow < 0 {
			badRow, badCol = i, bad
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	return rows, badRow, badCol, nil
}

// sextet maps each base64 character of the standard alphabet to its six
// bits and every other byte to 0xff.
var sextet = func() (t [256]byte) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for i := range t {
		t[i] = 0xff
	}
	for i := range len(alphabet) {
		t[alphabet[i]] = byte(i)
	}
	return t
}()

// decodeStd is DecodeRow through encoding/base64 alone, into a scratch
// buffer of its own.
func decodeStd(dst []float32, src []byte) (out []float32, bad int, err error) {
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(raw, src)
	if err != nil {
		return nil, -1, fmt.Errorf("packed vector: %w", err)
	}
	if n%4 != 0 {
		return nil, -1, fmt.Errorf("packed vector is %d bytes, not a multiple of 4", n)
	}
	bad = -1
	for i := 0; i < n; i += 4 {
		bits := binary.LittleEndian.Uint32(raw[i:])
		if bits&0x7f800000 == 0x7f800000 && bad < 0 {
			bad = i / 4
		}
		dst = append(dst, math.Float32frombits(bits))
	}
	return dst, bad, nil
}
