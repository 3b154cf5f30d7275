package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzAttendEnvelope drives arbitrary bodies through the /v1/attend
// decode path exactly as the handler runs it before admission:
// decodeEnvelope, then unpack, then validate. Every body must either
// pass all three, leaving an op the scheduler can take, or be answered
// 400, and none may panic. Packed rows may only allocate what the body
// pays for: four bytes of float per 5⅓ bytes of base64.
//
// The seeds run in plain `go test`; explore further with
//
//	go test -run '^$' -fuzz '^FuzzAttendEnvelope$' -fuzztime 30s ./internal/serve/
func FuzzAttendEnvelope(f *testing.F) {
	for _, tc := range envelopeGolden {
		f.Add([]byte(`{"op":` + tc.bare + `}`))
	}
	for _, seed := range []string{
		// Both q and qp for the same matrix.
		`{"op":{"q":[[1,0]],"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		// Base64 of odd length, and valid base64 that is not whole floats.
		`{"op":{"qp":["AACAPwAAAAA"],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		`{"op":{"qp":["AACA"],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		`{"op":{"qp":["AAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		// Ragged packed rows: two floats, then one.
		`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA=","AACAPw=="],"vp":["AACAPwAAAAA=","AACAPwAAAAA="]}}`,
		// NaN, +Inf and -Inf bits.
		`{"op":{"qp":["AADAfwAAgD8="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		`{"op":{"qp":["AACAfwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		`{"op":{"qp":["AACA/wAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		// Null and missing op.
		`{"op":null}`,
		`{"client_id":"c","priority":"batch"}`,
		// Empty qp, and a qp holding one empty row.
		`{"op":{"qp":[],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		`{"op":{"qp":[""],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
		// Plain and packed mixed across matrices.
		`{"op":{"q":[[1,0]],"kp":["AACAPwAAAAA="],"v":[[3,4]],"p":1,"t":-0.5}}`,
		`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"backend":"linear-scan"}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/attend", bytes.NewReader(body))
		w := httptest.NewRecorder()
		var req AttendRequest
		if _, ok := decodeEnvelope(w, r, 1<<20, &req); !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("decode rejected with %d, want 400", w.Code)
			}
			return
		}
		var packedLen [3]int // base64 bytes per packed matrix
		for m, rows := range [][]string{req.QP, req.KP, req.VP} {
			for _, s := range rows {
				packedLen[m] += len(s)
			}
		}
		if err := req.unpack(); err != nil {
			return // the handler answers 400 with err
		}
		if err := req.validate(); err != nil {
			return
		}
		for m, rows := range [][][]float32{req.Q, req.K, req.V} {
			floats := 0
			for _, row := range rows {
				floats += len(row)
				for _, x := range row {
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						t.Fatalf("accepted a non-finite element %g", x)
					}
				}
			}
			if packedLen[m] > 0 && 16*floats > 3*packedLen[m] {
				t.Fatalf("matrix %d: %d floats from %d base64 bytes", m, floats, packedLen[m])
			}
		}
		req.options() // head_dim inference must not panic on an accepted op
	})
}
