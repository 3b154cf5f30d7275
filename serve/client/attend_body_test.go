package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"elsa"
)

// packedAttendWire is the /v1/attend op as one struct, Q/K/V packed by
// PackRows: json.Marshal of it inside envelope is the body attendBody
// must write byte for byte.
type packedAttendWire struct {
	QP        []string `json:"qp"`
	KP        []string `json:"kp"`
	VP        []string `json:"vp"`
	P         float64  `json:"p,omitempty"`
	T         *float64 `json:"t,omitempty"`
	HeadDim   int      `json:"head_dim,omitempty"`
	HashBits  int      `json:"hash_bits,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Quantized bool     `json:"quantized,omitempty"`
	Backend   string   `json:"backend,omitempty"`
}

// marshalAttend is the reference body: the whole op marshaled at once.
func marshalAttend(env envelope, q, k, v [][]float32, opts AttendOptions) ([]byte, error) {
	op := packedAttendWire{
		QP: PackRows(q), KP: PackRows(k), VP: PackRows(v),
		P:         opts.P,
		HeadDim:   opts.HeadDim,
		HashBits:  opts.HashBits,
		Seed:      opts.Seed,
		Quantized: opts.Quantized,
		Backend:   opts.Backend,
	}
	if opts.Thr != nil {
		op.P = opts.Thr.P
		op.T = &opts.Thr.T
	}
	env.Op = op
	return json.Marshal(env)
}

// TestAttendBodyMatchesMarshal pins attendBody to json.Marshal of the
// whole op over a table of envelopes, options and shapes.
func TestAttendBodyMatchesMarshal(t *testing.T) {
	one := [][]float32{{1, -2.5, float32(math.Copysign(0, -1))}}
	ragged := [][]float32{{1}, {2, 3, 4, 5}, {}, {6, 7}}
	square := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	thr := func(p, t float64) AttendOptions {
		return AttendOptions{Overrides: elsa.Overrides{Thr: &elsa.Threshold{P: p, T: t}}}
	}
	for _, tc := range []struct {
		name    string
		env     envelope
		q, k, v [][]float32
		opts    AttendOptions
	}{
		{name: "bare", q: one, k: one, v: one},
		{name: "client id escapes", env: envelope{ClientID: `te"n<a>n&t ünï ✓`}, q: one, k: square, v: square},
		{name: "priority", env: envelope{Priority: "batch"}, q: one, k: one, v: one},
		{name: "deadline", env: envelope{ClientID: "c", Priority: "background", DeadlineMS: 250}, q: one, k: one, v: one},
		{name: "p", q: one, k: one, v: one, opts: AttendOptions{Overrides: elsa.Overrides{P: 1}}},
		{name: "explicit threshold", q: one, k: one, v: one, opts: thr(2, 0.5)},
		{name: "t = -0", q: one, k: one, v: one, opts: thr(0, math.Copysign(0, -1))},
		{name: "backend", q: one, k: one, v: one, opts: AttendOptions{Overrides: elsa.Overrides{Backend: "linear-scan"}}},
		{name: "quantized engine", env: envelope{DeadlineMS: 7}, q: square, k: square, v: square,
			opts: AttendOptions{Overrides: elsa.Overrides{P: 0.25}, HeadDim: 2, HashBits: 12, Seed: -9, Quantized: true}},
		{name: "ragged", q: ragged, k: ragged, v: one},
		{name: "empty and nil", q: [][]float32{}, k: nil, v: one},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := attendBody(tc.env, tc.q, tc.k, tc.v, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshalAttend(tc.env, tc.q, tc.k, tc.v, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("attendBody differs from json.Marshal:\ngot:  %s\nwant: %s", got, want)
			}
			if cap(got)-len(got) > 4 {
				t.Errorf("body is %d bytes in a %d-byte buffer; want it sized up front", len(got), cap(got))
			}
		})
	}

	// A value json.Marshal refuses fails the same way.
	nan := AttendOptions{Overrides: elsa.Overrides{P: math.NaN()}}
	_, err := attendBody(envelope{}, one, one, one, nan)
	_, wantErr := marshalAttend(envelope{}, one, one, one, nan)
	if err == nil || wantErr == nil || err.Error() != "client: encoding op: "+wantErr.Error() {
		t.Errorf("p = NaN: attendBody error %v, json.Marshal error %v", err, wantErr)
	}
}

// BenchmarkAttendEncode times the real /v1/attend encoder on an op the
// shape of attend-oneshot's long ones (4 queries over 320 keys, d = 64).
//
//	go test -run '^$' -bench AttendEncode ./serve/client/
func BenchmarkAttendEncode(b *testing.B) {
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
	env := envelope{ClientID: "bench", DeadlineMS: 500}
	b.ReportAllocs()
	var body []byte
	for i := 0; i < b.N; i++ {
		var err error
		if body, err = attendBody(env, q, k, v, AttendOptions{Overrides: elsa.Overrides{P: 1}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(body)), "body_B")
}

// TestAppendBodyMatchesMarshal pins the append body Session.AppendBatch
// sends to json.Marshal of an op holding only kp and vp, PackRows of the
// keys and values.
func TestAppendBodyMatchesMarshal(t *testing.T) {
	one := [][]float32{{1, -2.5, float32(math.Copysign(0, -1))}}
	square := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	for _, tc := range []struct {
		name         string
		env          envelope
		keys, values [][]float32
	}{
		{name: "one token", keys: one, values: one},
		{name: "prefill", env: envelope{ClientID: "c", Priority: "batch", DeadlineMS: 250}, keys: square, values: square},
		{name: "ragged", keys: [][]float32{{1}, {}, {2, 3}}, values: one},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := packedBody(tc.env, []packedMember{{"kp", tc.keys}, {"vp", tc.values}}, struct{}{})
			if err != nil {
				t.Fatal(err)
			}
			env := tc.env
			env.Op = struct {
				KP []string `json:"kp"`
				VP []string `json:"vp"`
			}{PackRows(tc.keys), PackRows(tc.values)}
			want, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("append body differs from json.Marshal:\ngot:  %s\nwant: %s", got, want)
			}
			if cap(got)-len(got) > 4 {
				t.Errorf("body is %d bytes in a %d-byte buffer; want it sized up front", len(got), cap(got))
			}
		})
	}
}

// BenchmarkAppendEncode times the real append encoder on one decode
// token and on a 256-row prefill, d = 64.
//
//	go test -run '^$' -bench AppendEncode ./serve/client/
func BenchmarkAppendEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{1, 256} {
		k, v := make([][]float32, rows), make([][]float32, rows)
		for i := range k {
			k[i], v[i] = make([]float32, 64), make([]float32, 64)
			for j := range k[i] {
				k[i][j], v[i][j] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
			}
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			env := envelope{ClientID: "bench"}
			b.ReportAllocs()
			var body []byte
			for i := 0; i < b.N; i++ {
				var err error
				if body, err = packedBody(env, []packedMember{{"kp", k}, {"vp", v}}, struct{}{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body_B")
		})
	}
}
