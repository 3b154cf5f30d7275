//go:build !amd64

package attention

func weightedRowsAVX2(out *float32, cols int, w *float64, vals *float32, rows *int, n int, base int, d int) {
	panic("attention: no AVX2 softmax·V kernel on this architecture")
}

func scanTileAVX2(acc *float64, cols int, w *float64, r *float64, vals *float32, n int, d int) {
	panic("attention: no AVX2 linear-scan kernel on this architecture")
}
