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
