package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"elsa/serve/client"
)

// BenchmarkAttendCodec measures the /v1/attend wire codec on one op the
// shape of attend-oneshot's long ones (4 queries over 320 keys, d = 64),
// plain JSON against packed rows: encoding the body, and the server's
// decode up to a validated op. body_B is the request size.
//
//	go test -run '^$' -bench AttendCodec ./internal/serve/
func BenchmarkAttendCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(rows int) [][]float32 {
		m := make([][]float32, rows)
		for i := range m {
			m[i] = make([]float32, 64)
			for j := range m[i] {
				m[i][j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
	q, k, v := mk(4), mk(320), mk(320)
	for _, tc := range []struct {
		name string
		op   func() AttendRequest
	}{
		{"plain", func() AttendRequest { return AttendRequest{Q: q, K: k, V: v, P: 1} }},
		{"packed", func() AttendRequest {
			return AttendRequest{QP: client.PackRows(q), KP: client.PackRows(k), VP: client.PackRows(v), P: 1}
		}},
	} {
		encode := func() []byte {
			op := tc.op()
			body, err := json.Marshal(envelope[AttendRequest]{Op: &op})
			if err != nil {
				b.Fatal(err)
			}
			return body
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				encode()
			}
		})
		body := encode()
		b.Run(tc.name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				r := httptest.NewRequest("POST", "/v1/attend", bytes.NewReader(body))
				var req AttendRequest
				if _, ok := decodeEnvelope(w, r, 1<<20, &req); !ok {
					b.Fatal(w.Body.String())
				}
				if err := req.unpack(); err != nil {
					b.Fatal(err)
				}
				if err := req.validate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body_B")
		})
	}
}
