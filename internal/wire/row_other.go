//go:build !amd64

package wire

func decodeAVX2(dst *float32, src *byte, n int) (chars int, nonFinite bool) {
	panic("wire: no AVX2 base64 kernel on this architecture")
}

func encodeAVX2(dst *byte, src *float32, n int) int {
	panic("wire: no AVX2 base64 kernel on this architecture")
}
