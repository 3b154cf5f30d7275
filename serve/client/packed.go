package client

import (
	"encoding/base64"

	"elsa/internal/wire"
)

// PackVec encodes a float32 vector as base64 little-endian bytes — the
// wire's bulk encoding for vectors, shared by client and server. A JSON
// number array costs a strconv float parse per element, and on a step
// wave or a long K/V that parsing dominates the whole request (it
// profiles at roughly half the request's CPU); the packed form parses
// with one base64 decode and round-trips float32 bit-exactly, so packed
// requests stay bit-identical to plain ones.
func PackVec(v []float32) string {
	return string(wire.AppendRow(make([]byte, 0, base64.StdEncoding.EncodedLen(4*len(v))), v))
}

// UnpackVec decodes a PackVec string back into float32s.
func UnpackVec(s string) ([]float32, error) {
	out, _, err := wire.DecodeRow(make([]float32, 0, wire.Floats(len(s))), []byte(s))
	return out, err
}

// PackRows is PackVec over every row of a matrix. All rows are encoded
// into one buffer and converted to a string once, so the allocation
// count does not grow with the number of rows.
func PackRows(rows [][]float32) []string {
	size := 0
	for _, r := range rows {
		size += base64.StdEncoding.EncodedLen(4 * len(r))
	}
	enc := make([]byte, 0, size)
	for _, r := range rows {
		enc = wire.AppendRow(enc, r)
	}
	all := string(enc)
	out := make([]string, len(rows))
	for i, r := range rows {
		n := base64.StdEncoding.EncodedLen(4 * len(r))
		out[i], all = all[:n], all[n:]
	}
	return out
}

// UnpackRows decodes PackRows output into one shared backing array, so
// allocation is bounded by the input and does not grow per row. Rows may
// differ in length; shape checks are the caller's.
func UnpackRows(rows []string) ([][]float32, error) {
	out, _, _, err := wire.DecodeRows(rows)
	return out, err
}
