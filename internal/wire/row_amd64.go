package wire

// decodeAVX2 decodes the base64 characters src[0:n], n a multiple of 4
// and at least 32, into the 3n/4 bytes at dst, and returns how many it
// consumed: n, or the offset of the first 32-character block holding a
// byte outside the standard alphabet ('=', CR, LF and '"' included). The
// blocks start at multiples of 32, and one more ends at n when n is not
// one. nonFinite reports whether a float32 of the first n/32·6 has an
// all-ones exponent. Each block stores 16 + 8 bytes.
//
//go:noescape
func decodeAVX2(dst *float32, src *byte, n int) (chars int, nonFinite bool)

// encodeAVX2 encodes the n bytes at src, n at least 28, into 32
// characters per 24-byte step at dst, and returns the bytes consumed: a
// multiple of 3 that leaves 4 to 6 bytes, the last group or two, for the
// caller. A step loads 28 bytes, so the steps start at multiples of 24
// while they can, and one more starts at the last multiple of 3 that
// can.
//
//go:noescape
func encodeAVX2(dst *byte, src *float32, n int) int
