package attention

// weightedRowsAVX2 is addWeightedRows' AVX2 kernel for the first cols
// columns, cols a multiple of 4; n >= 1 and d is the row length. Each
// value goes VCVTPS2PD, VMULPD by the broadcast weight, VCVTPD2PS and
// VADDPS into its column's float32 sum: the three roundings of
// s += float32(wy*float64(v)), rows in order.
//
//go:noescape
func weightedRowsAVX2(out *float32, cols int, w *float64, vals *float32, rows *int, n int, base int, d int)

// scanTileAVX2 is addScanTile's AVX2 kernel for the first cols columns, cols
// a multiple of 4, over n >= 1 keys of d elements. Per key a column is
// rescaled by VMULPD when r[t] is not 1, then gains VCVTPS2PD, VMULPD by
// the broadcast weight and VADDPD: a = a·r, a += w·float64(v).
//
//go:noescape
func scanTileAVX2(acc *float64, cols int, w *float64, r *float64, vals *float32, n int, d int)

// maxAVX2 returns the largest non-NaN element among x[0:n], n a positive
// multiple of 4, or -Inf. Lane l keeps VMAXPD(x, m), which is x where x > m
// and m otherwise, as the scalar loop's if x > m does.
//
//go:noescape
func maxAVX2(x *float64, n int) float64

// scaleAVX2 multiplies x[0:n] by s, n a positive multiple of 4.
//
//go:noescape
func scaleAVX2(x *float64, n int, s float64)

// selectAVX2 is selectKeys' kernel for one-word hashes over keys 0..n-1,
// n a positive multiple of 4. Per step it takes four keys: XOR with the
// query word and POPCNT for each, four lut loads, VMULPD by the norms
// and VCMPPD GT against cut. A VPERMD from a 16-entry table packs the
// passing keys' indices to the front of one store at the cursor in dst,
// which then advances by the mask's popcount. It returns the cursor. The
// same pass keeps each lane's best similarity with a strict GT compare,
// so best[l] and bestSim[l] are the first best of keys l, l+4, …, or 0
// and -Inf. dst must have room for n indices.
//
//go:noescape
func selectAVX2(dst *int, hashes *uint64, q uint64, lut *float64, norms *float64, cut float64, n int, best *[4]int, bestSim *[4]float64) int

// finiteAVX2 returns the sum of x[i]·0 over x[0:n], n a positive multiple
// of 32: ±0 when every element is finite, NaN otherwise. Each step takes
// 32 elements, VMULPS by zero and then VADDPS into four accumulators.
//
//go:noescape
func finiteAVX2(x *float32, n int) float32
