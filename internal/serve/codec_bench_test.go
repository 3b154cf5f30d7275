package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"elsa/serve/client"
)

// BenchmarkAttendCodec measures the /v1/attend wire codec on one op the
// shape of attend-oneshot's long ones (4 queries over 320 keys, d = 64),
// plain JSON against packed rows: the handler's decode (decodeAttend) up
// to a validated op, and, for plain bodies, the json.Marshal encode a
// plain client pays. The packed encoder is serve/client's own, timed by
// its BenchmarkAttendEncode. body_B is the request size.
//
//	go test -run '^$' -bench AttendCodec ./internal/serve/
func BenchmarkAttendCodec(b *testing.B) {
	q, k, v := randMatrix(1, 4, 64), randMatrix(2, 320, 64), randMatrix(3, 320, 64)
	plain, err := json.Marshal(envelope[AttendRequest]{Op: &AttendRequest{Q: q, K: k, V: v, P: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(envelope[AttendRequest]{Op: &AttendRequest{Q: q, K: k, V: v, P: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name string
		body []byte
	}{{"plain", plain}, {"packed", packedAttendBody(b, q, k, v)}} {
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				r := httptest.NewRequest("POST", "/v1/attend", bytes.NewReader(tc.body))
				var req AttendRequest
				if _, _, ok := decodeAttend(w, r, 1<<20, &req); !ok {
					b.Fatal(w.Body.String())
				}
			}
			b.ReportMetric(float64(len(tc.body)), "body_B")
		})
	}
}

// TestAttendPackedDecodeAllocs pins the packed decode's allocations: a
// constant count, the same for 8 key rows as for 512, and bytes that
// grow with the body (the body itself and one float32 backing per
// matrix), not with the row count on top of it.
func TestAttendPackedDecodeAllocs(t *testing.T) {
	decode := func(keys int) (allocs, bytesPerOp float64, body []byte) {
		body = packedAttendBody(t, randMatrix(1, 4, 64), randMatrix(2, keys, 64), randMatrix(3, keys, 64))
		// One request whose body is rewound per run, so that only the
		// decode's own allocations are counted.
		rd := bytes.NewReader(body)
		w, r := httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/attend", rd)
		run := func() {
			rd.Reset(body)
			var req AttendRequest
			if _, _, ok := decodeAttend(w, r, 1<<20, &req); !ok {
				t.Fatal(w.Body.String())
			}
		}
		allocs = testing.AllocsPerRun(20, run)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
		return allocs, float64(res.AllocedBytesPerOp()), body
	}
	fewAllocs, _, _ := decode(8)
	manyAllocs, manyBytes, body := decode(512)
	if fewAllocs != manyAllocs {
		t.Errorf("packed decode makes %v allocations for 8 key rows, %v for 512: want a constant", fewAllocs, manyAllocs)
	}
	// The body, its floats (3/4 of the base64), the row headers (24 B a
	// row, 1/15 of a 64-wide row's base64) and the decode scratch.
	if limit := 2 * float64(len(body)); manyBytes > limit {
		t.Errorf("packed decode allocates %.0f B for a %d B body, want at most %.0f", manyBytes, len(body), limit)
	}
}

// BenchmarkAppendCodec measures the POST /v1/sessions/{id}/append wire
// codec on one decode token and on a 256-row prefill, d = 64, plain JSON
// against packed rows: the json.Marshal encode a plain client pays, and
// the handler's decode (decodeAppend) of either body. The packed encoder
// is serve/client's own, timed by its BenchmarkAppendEncode. body_B is
// the request size.
//
//	go test -run '^$' -bench AppendCodec ./internal/serve/
func BenchmarkAppendCodec(b *testing.B) {
	for _, rows := range []int{1, 256} {
		k, v := randMatrix(1, rows, 64), randMatrix(2, rows, 64)
		plain, err := json.Marshal(envelope[SessionAppendRequest]{Op: &SessionAppendRequest{Keys: k, Values: v}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d/plain/encode", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(envelope[SessionAppendRequest]{Op: &SessionAppendRequest{Keys: k, Values: v}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, tc := range []struct {
			name string
			body []byte
		}{{"plain", plain}, {"packed", packedAppendBody(b, k, v)}} {
			b.Run(fmt.Sprintf("rows=%d/%s/decode", rows, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w := httptest.NewRecorder()
					r := httptest.NewRequest("POST", "/v1/sessions/a/append", bytes.NewReader(tc.body))
					var req SessionAppendRequest
					if !decodeAppend(w, r, 1<<20, &req) {
						b.Fatal(w.Body.String())
					}
				}
				b.ReportMetric(float64(len(tc.body)), "body_B")
			})
		}
	}
}

// TestAppendPackedDecodeAllocs pins the packed append decode's
// allocations as TestAttendPackedDecodeAllocs does the attend one's: a
// constant count, the same for 8 rows as for 512, and bytes that grow
// with the body, not with the row count on top of it.
func TestAppendPackedDecodeAllocs(t *testing.T) {
	decode := func(rows int) (allocs, bytesPerOp float64, body []byte) {
		body = packedAppendBody(t, randMatrix(1, rows, 64), randMatrix(2, rows, 64))
		rd := bytes.NewReader(body)
		w, r := httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sessions/a/append", rd)
		run := func() {
			rd.Reset(body)
			var req SessionAppendRequest
			if !decodeAppend(w, r, 1<<20, &req) || len(req.Keys) != rows {
				t.Fatalf("decode of %d rows: %s", rows, w.Body.String())
			}
		}
		allocs = testing.AllocsPerRun(20, run)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
		return allocs, float64(res.AllocedBytesPerOp()), body
	}
	fewAllocs, _, _ := decode(8)
	manyAllocs, manyBytes, body := decode(512)
	if fewAllocs != manyAllocs {
		t.Errorf("packed append decode makes %v allocations for 8 rows, %v for 512: want a constant", fewAllocs, manyAllocs)
	}
	if limit := 2 * float64(len(body)); manyBytes > limit {
		t.Errorf("packed append decode allocates %.0f B for a %d B body, want at most %.0f", manyBytes, len(body), limit)
	}
}

// randMatrix is a seeded rows×cols matrix of normal floats.
func randMatrix(seed int64, rows, cols int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]float32, rows)
	for i := range m {
		m[i] = make([]float32, cols)
		for j := range m[i] {
			m[i][j] = float32(rng.NormFloat64())
		}
	}
	return m
}

// packedAttendBody is an enveloped packed attend op at p = 1 in the
// shape serve/client sends: qp, kp and vp, and no plain q/k/v keys.
func packedAttendBody(tb testing.TB, q, k, v [][]float32) []byte {
	op, err := json.Marshal(struct {
		QP []string `json:"qp"`
		KP []string `json:"kp"`
		VP []string `json:"vp"`
		P  float64  `json:"p"`
	}{client.PackRows(q), client.PackRows(k), client.PackRows(v), 1})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(Envelope{Op: op})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// packedAppendBody is an enveloped packed append op in the shape
// serve/client sends: kp and vp, and no plain keys.
func packedAppendBody(tb testing.TB, k, v [][]float32) []byte {
	op, err := json.Marshal(SessionAppendRequest{KP: client.PackRows(k), VP: client.PackRows(v)})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(Envelope{Op: op})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}
