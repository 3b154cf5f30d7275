package client

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// PackVec encodes a float32 vector as base64 little-endian bytes — the
// wire's bulk encoding for vectors, shared by client and server. A JSON
// number array costs a strconv float parse per element, and on a step
// wave or a long K/V that parsing dominates the whole request (it
// profiles at roughly half the request's CPU); the packed form parses
// with one base64 decode and round-trips float32 bit-exactly, so packed
// requests stay bit-identical to plain ones.
func PackVec(v []float32) string {
	return base64.StdEncoding.EncodeToString(appendLE(make([]byte, 0, 4*len(v)), v))
}

// UnpackVec decodes a PackVec string back into float32s.
func UnpackVec(s string) ([]float32, error) {
	n := base64.StdEncoding.DecodedLen(len(s))
	return unpackInto(make([]float32, 0, n/4), make([]byte, n), s)
}

// PackRows is PackVec over every row of a matrix. All rows are encoded
// into one buffer and converted to a string once, so the allocation
// count does not grow with the number of rows.
func PackRows(rows [][]float32) []string {
	size, widest := 0, 0
	for _, r := range rows {
		size += base64.StdEncoding.EncodedLen(4 * len(r))
		widest = max(widest, 4*len(r))
	}
	raw := make([]byte, 0, widest)
	enc := make([]byte, 0, size)
	for _, r := range rows {
		raw = appendLE(raw[:0], r)
		enc = base64.StdEncoding.AppendEncode(enc, raw)
	}
	all := string(enc)
	out := make([]string, len(rows))
	for i, r := range rows {
		n := base64.StdEncoding.EncodedLen(4 * len(r))
		out[i], all = all[:n], all[n:]
	}
	return out
}

// UnpackRows decodes PackRows output. Every row lands in one shared
// backing array sized from the encoded lengths, so allocation is bounded
// by the input and does not grow per row. Rows may differ in length;
// shape checks are the caller's.
func UnpackRows(rows []string) ([][]float32, error) {
	total, widest := 0, 0
	for _, s := range rows {
		n := base64.StdEncoding.DecodedLen(len(s))
		total += n / 4
		widest = max(widest, n)
	}
	backing := make([]float32, 0, total)
	scratch := make([]byte, widest)
	out := make([][]float32, len(rows))
	for i, s := range rows {
		start := len(backing)
		var err error
		if backing, err = unpackInto(backing, scratch, s); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out, nil
}

// appendLE appends v's float32 bits to dst, little-endian.
func appendLE(dst []byte, v []float32) []byte {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// unpackInto base64-decodes s through scratch (at least DecodedLen(len(s))
// bytes) and appends the float32s it holds to dst.
func unpackInto(dst []float32, scratch []byte, s string) ([]float32, error) {
	n, err := base64.StdEncoding.Decode(scratch, []byte(s))
	if err != nil {
		return nil, fmt.Errorf("packed vector: %w", err)
	}
	if n%4 != 0 {
		return nil, fmt.Errorf("packed vector is %d bytes, not a multiple of 4", n)
	}
	for i := 0; i < n; i += 4 {
		dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(scratch[i:])))
	}
	return dst, nil
}
