package serve_test

// Packed /v1/attend: Q/K/V as client.PackVec rows in, context_packed out.
// The packed form must change nothing but the bytes on the wire.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// attendRaw sends one enveloped attend op and returns the status, the
// decoded reply (zero unless 200) and the body text.
func attendRaw(url string, op serve.AttendRequest) (int, serve.AttendResponse, string, error) {
	var out serve.AttendResponse
	raw, err := json.Marshal(op)
	if err != nil {
		return 0, out, "", err
	}
	body, err := json.Marshal(serve.Envelope{Op: raw})
	if err != nil {
		return 0, out, "", err
	}
	resp, err := http.Post(url+"/v1/attend", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, "", err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, out, "", err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(text, &out)
	}
	return resp.StatusCode, out, string(text), err
}

// postRaw is attendRaw failing the test on a transport or decode error.
func postRaw(t *testing.T, url string, op serve.AttendRequest) (int, serve.AttendResponse, string) {
	t.Helper()
	code, out, text, err := attendRaw(url, op)
	if err != nil {
		t.Fatal(err)
	}
	return code, out, text
}

// packedOf returns op with Q/K/V moved to their packed fields.
func packedOf(op serve.AttendRequest) serve.AttendRequest {
	op.QP, op.KP, op.VP = client.PackRows(op.Q), client.PackRows(op.K), client.PackRows(op.V)
	op.Q, op.K, op.V = nil, nil, nil
	return op
}

// sameBits reports whether two matrices are equal bit for bit.
func sameBits(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestAttendPackedMatchesPlain sends the same op plain and packed at p=1,
// p=0 on the scores backend and p=0 on the linear scan, to a standalone
// server and to a frontend over one remote worker (whose lane is packed).
// Plain answers context, packed answers context_packed, and everything
// else in the two replies is equal, the context bit for bit.
func TestAttendPackedMatchesPlain(t *testing.T) {
	front, workerCfg := fastCluster()
	standalone := servetest.NewWorker(workerCfg)
	defer standalone.Close()
	cl := servetest.NewCluster(1, front, workerCfg)
	defer cl.Close()

	ops := rtOps(3)
	for _, target := range []struct{ name, url string }{{"standalone", standalone.URL()}, {"frontend", cl.URL()}} {
		for _, tc := range []struct {
			name    string
			p       float64
			backend string
		}{{"p=1", 1, ""}, {"p=0 scores", 0, "scores"}, {"p=0 linear-scan", 0, "linear-scan"}} {
			t.Run(target.name+"/"+tc.name, func(t *testing.T) {
				for i, o := range ops {
					plain := serve.AttendRequest{Q: o[0], K: o[1], V: o[2], P: tc.p, Backend: tc.backend, HeadDim: rtDim}
					code, want, text := postRaw(t, target.url, plain)
					if code != http.StatusOK {
						t.Fatalf("op %d plain: %d %s", i, code, text)
					}
					code, got, text := postRaw(t, target.url, packedOf(plain))
					if code != http.StatusOK {
						t.Fatalf("op %d packed: %d %s", i, code, text)
					}
					if want.ContextPacked != nil || got.Context != nil {
						t.Fatalf("op %d: plain must answer context and packed context_packed", i)
					}
					ctx, err := client.UnpackRows(got.ContextPacked)
					if err != nil {
						t.Fatalf("op %d: context_packed: %v", i, err)
					}
					if !sameBits(want.Context, ctx) {
						t.Errorf("op %d: packed context differs from plain", i)
					}
					if !equalReplies(want, got) {
						t.Errorf("op %d: reply fields differ:\nplain:  %+v\npacked: %+v", i, want, got)
					}
				}
			})
		}
	}
}

// equalReplies compares the non-context fields of two attend replies.
func equalReplies(a, b serve.AttendResponse) bool {
	return a.CandidateFraction == b.CandidateFraction && a.FallbackQueries == b.FallbackQueries &&
		a.Threshold == b.Threshold && a.BatchSize == b.BatchSize
}

// TestAttendNonFinitePackedRejectedAlone submits a packed op carrying a
// NaN together with a good op. The bad op must answer 400 before
// admission, so it never joins (and fails) the good op's micro-batch;
// the good op answers 200 with the same bits it gets alone. Behind a
// frontend the worker must stay healthy: a 500 from it would count
// toward ejection.
func TestAttendNonFinitePackedRejectedAlone(t *testing.T) {
	front, workerCfg := fastCluster()
	standalone := servetest.NewWorker(workerCfg)
	defer standalone.Close()
	cl := servetest.NewCluster(1, front, workerCfg)
	defer cl.Close()

	o := rtOps(1)[0]
	good := packedOf(serve.AttendRequest{Q: o[0], K: o[1], V: o[2], HeadDim: rtDim})
	bad := good
	badK := make([][]float32, len(o[1]))
	copy(badK, o[1])
	badK[1] = append([]float32(nil), o[1][1]...)
	badK[1][3] = float32(math.NaN())
	bad.KP = client.PackRows(badK)

	for _, target := range []struct{ name, url string }{{"standalone", standalone.URL()}, {"frontend", cl.URL()}} {
		t.Run(target.name, func(t *testing.T) {
			code, alone, text := postRaw(t, target.url, good)
			if code != http.StatusOK {
				t.Fatalf("good op alone: %d %s", code, text)
			}
			var wg sync.WaitGroup
			var badCode, goodCode int
			var badText string
			var together serve.AttendResponse
			var badErr, goodErr error
			wg.Add(2)
			go func() { defer wg.Done(); badCode, _, badText, badErr = attendRaw(target.url, bad) }()
			go func() { defer wg.Done(); goodCode, together, _, goodErr = attendRaw(target.url, good) }()
			wg.Wait()
			if badErr != nil || goodErr != nil {
				t.Fatal(badErr, goodErr)
			}
			if badCode != http.StatusBadRequest || !strings.Contains(badText, "kp row 1 element 3 is not finite") {
				t.Errorf("NaN op: %d %s, want 400 naming the element", badCode, badText)
			}
			if goodCode != http.StatusOK {
				t.Fatalf("good op beside the NaN op: %d", goodCode)
			}
			if !sameBits(mustUnpack(t, alone.ContextPacked), mustUnpack(t, together.ContextPacked)) {
				t.Error("good op's context changed when submitted beside the NaN op")
			}
		})
	}
	h, err := client.New(cl.URL()).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.HealthyWorkers != 1 {
		t.Errorf("frontend reports %d healthy workers after the NaN op, want 1", h.HealthyWorkers)
	}
}

func mustUnpack(t *testing.T, rows []string) [][]float32 {
	t.Helper()
	out, err := client.UnpackRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
