//go:build !amd64

package attention

func weightedRowsAVX2(out *float32, cols int, w *float64, vals *float32, rows *int, n int, base int, d int) {
	panic("attention: no AVX2 softmax·V kernel on this architecture")
}

func scanTileAVX2(acc *float64, cols int, w *float64, r *float64, vals *float32, n int, d int) {
	panic("attention: no AVX2 linear-scan kernel on this architecture")
}

func maxAVX2(x *float64, n int) float64 {
	panic("attention: no AVX2 max kernel on this architecture")
}

func scaleAVX2(x *float64, n int, s float64) {
	panic("attention: no AVX2 scale kernel on this architecture")
}

func selectAVX2(dst *int, hashes *uint64, q uint64, lut *float64, norms *float64, cut float64, n int, best *[4]int, bestSim *[4]float64) int {
	panic("attention: no AVX2 select kernel on this architecture")
}

func finiteAVX2(x *float32, n int) float32 {
	panic("attention: no AVX2 finiteness kernel on this architecture")
}
