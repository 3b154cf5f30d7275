package serve_test

// Packed session appends: kp/vp rows in, {"len":n} out. The packed form
// must change nothing but the bytes on the wire, and a refused append
// must change nothing at all.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// appendRaw posts one enveloped append op to session id at url and
// returns the status and the reply text.
func appendRaw(t *testing.T, url, id string, op serve.SessionAppendRequest) (int, string) {
	t.Helper()
	raw, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.Envelope{Op: raw})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sessions/"+id+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(text)
}

// tokenRows is a seeded batch of n key and value rows, rtDim wide, with
// full-precision floats so that plain JSON text must round-trip every bit.
func tokenRows(seed int64, n int) (keys, values [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	keys, values = make([][]float32, n), make([][]float32, n)
	for i := range keys {
		keys[i], values[i] = make([]float32, rtDim), make([]float32, rtDim)
		for j := range keys[i] {
			keys[i][j], values[i][j] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
	}
	return keys, values
}

// plainAppend is the plain body for a batch: key/value for one token,
// keys/values for more.
func plainAppend(keys, values [][]float32) serve.SessionAppendRequest {
	if len(keys) == 1 {
		return serve.SessionAppendRequest{Key: keys[0], Value: values[0]}
	}
	return serve.SessionAppendRequest{Keys: keys, Values: values}
}

// packedAppend is the packed body for a batch.
func packedAppend(keys, values [][]float32) serve.SessionAppendRequest {
	return serve.SessionAppendRequest{KP: client.PackRows(keys), VP: client.PackRows(values)}
}

// sameSession requires two sessions to answer query q with the same bits
// and the same length, and to export the same state bytes.
func sameSession(t *testing.T, a, b *client.Session, q []float32) {
	t.Helper()
	ctx := context.Background()
	ra, err := a.Query(ctx, q, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Query(ctx, q, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Len != rb.Len || ra.Candidates != rb.Candidates || !sameBits([][]float32{ra.Context}, [][]float32{rb.Context}) {
		t.Fatalf("queries differ: len %d/%d, candidates %d/%d, context equal %v",
			ra.Len, rb.Len, ra.Candidates, rb.Candidates, sameBits([][]float32{ra.Context}, [][]float32{rb.Context}))
	}
	ea, err := a.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Len != eb.Len || !bytes.Equal(ea.State, eb.State) {
		t.Fatalf("exports differ: len %d/%d, state equal %v", ea.Len, eb.Len, bytes.Equal(ea.State, eb.State))
	}
}

// TestAppendPackedMatchesPlain drives one token sequence (a 20-row
// prefill, then batches of one to three rows) into two sessions, one
// appended packed and one plain, and requires the same lengths, query
// bits and Export bytes after every batch: on a standalone server,
// through a frontend, across a drain that migrates both sessions to
// another worker, and across a worker loss that recovers both from the
// frontend's shadow.
func TestAppendPackedMatchesPlain(t *testing.T) {
	for _, name := range []string{"standalone", "frontend", "migration", "recovery"} {
		t.Run(name, func(t *testing.T) {
			var url string
			var cl *servetest.Cluster
			if name == "standalone" {
				w := servetest.NewWorker(serve.Config{Replicas: 1})
				defer w.Close()
				url = w.URL()
			} else {
				cl = servetest.NewDynamicCluster(dynamicFront())
				defer cl.Close()
				if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				url = cl.URL()
			}
			c := client.New(url)
			var sessions [2]*client.Session // packed, plain
			for i := range sessions {
				s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: rtDim, Seed: 17})
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			step := func(round int64, n int) {
				t.Helper()
				keys, values := tokenRows(round, n)
				for i, op := range []serve.SessionAppendRequest{packedAppend(keys, values), plainAppend(keys, values)} {
					if code, text := appendRaw(t, url, sessions[i].ID(), op); code != http.StatusOK {
						t.Fatalf("round %d session %d: %d %s", round, i, code, text)
					}
				}
				sameSession(t, sessions[0], sessions[1], keys[0])
			}
			step(0, 20)
			step(1, 1)
			switch name {
			case "migration", "recovery":
				// Both sessions sit on the first worker; a second one
				// gives them somewhere to go.
				if _, err := cl.AddWorker(dynamicWorker(), 25*time.Millisecond, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				if name == "recovery" {
					cl.Workers[0].SetDown(true)
					break
				}
				status, err := cl.DrainMember(context.Background(), cl.Workers[0].URL())
				if err != nil {
					t.Fatal(err)
				}
				if status.Relocated != len(sessions) {
					t.Fatalf("drain relocated %d sessions, want %d", status.Relocated, len(sessions))
				}
			}
			for round := int64(2); round < 6; round++ {
				step(round, 1+int(round)%3)
			}
			if name == "recovery" {
				if n := metricTotal(cl.Frontend.Metrics(), "elsa_serve_sessions_recovered_total"); n != int64(len(sessions)) {
					t.Errorf("%d sessions recovered from the shadow, want %d", n, len(sessions))
				}
			}
		})
	}
}

// TestRefusedAppendKeepsLength sends append batches whose last row is
// bad, after two good tokens, to a standalone server and to a frontend
// over one remote worker. Each must answer 400 and append nothing: the
// next one-token append answers {"len":3}, and the session then answers
// and exports exactly as a reference session given only the three good
// tokens. Behind the frontend the query's length is the worker's and
// the export is the shadow's, so the two must also agree.
func TestRefusedAppendKeepsLength(t *testing.T) {
	good, goodV := tokenRows(1, 3)
	bad, badV := tokenRows(2, 3)
	nan := append([]float32(nil), badV[2]...)
	nan[rtDim-1] = float32(math.NaN())
	for _, tc := range []struct {
		name string
		op   serve.SessionAppendRequest
		text string
	}{
		{"ragged plain", serve.SessionAppendRequest{Keys: [][]float32{bad[0], bad[1], bad[2][:2]}, Values: badV},
			"stream append with dims 2/16"},
		{"packed NaN in last row", packedAppend(bad, [][]float32{badV[0], badV[1], nan}),
			"vp row 2 element 15 is not finite (NaN)"},
		{"bad base64", serve.SessionAppendRequest{KP: append(client.PackRows(bad[:2]), "!!!!"), VP: client.PackRows(badV)},
			"kp row 2: packed vector: illegal base64"},
		{"mixed fields", serve.SessionAppendRequest{Keys: bad, Values: badV, KP: client.PackRows(bad), VP: client.PackRows(badV)},
			"mutually exclusive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			standalone := servetest.NewWorker(serve.Config{Replicas: 1})
			defer standalone.Close()
			ref := servetest.NewWorker(serve.Config{Replicas: 1})
			defer ref.Close()
			front, workerCfg := fastCluster()
			cl := servetest.NewCluster(1, front, workerCfg)
			defer cl.Close()

			ctx := context.Background()
			want, err := client.New(ref.URL()).NewSession(ctx, client.SessionOptions{HeadDim: rtDim, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := want.AppendBatch(ctx, good, goodV); err != nil {
				t.Fatal(err)
			}
			for _, url := range []string{standalone.URL(), cl.URL()} {
				s, err := client.New(url).NewSession(ctx, client.SessionOptions{HeadDim: rtDim, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.AppendBatch(ctx, good[:2], goodV[:2]); err != nil {
					t.Fatal(err)
				}
				code, text := appendRaw(t, url, s.ID(), tc.op)
				if code != http.StatusBadRequest || !bytes.Contains([]byte(text), []byte(tc.text)) {
					t.Fatalf("%s: bad batch answered %d %s, want 400 naming %q", url, code, text, tc.text)
				}
				n, err := s.Append(ctx, good[2], goodV[2])
				if err != nil {
					t.Fatal(err)
				}
				if n != 3 {
					t.Fatalf("%s: append after the refused batch answered len %d, want 3", url, n)
				}
				sameSession(t, s, want, good[0])
			}
		})
	}
}
