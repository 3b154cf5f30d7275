package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"elsa/internal/wire"
)

// FuzzSessionImport drives arbitrary envelope bodies through POST
// /v1/sessions/import. Every body must be answered 200 or 4xx and none
// may panic: a body that does not carry a session this server can adopt
// fails closed. An accepted session must take an append and a query, at
// the length the import reported plus one.
//
// The seeds are real export replies (float and quantized engines, with
// and without a threshold, an exact backend) wrapped as import bodies,
// and cut or corrupted copies of one. A body asking for an engine
// beyond maxHeadDim or maxHashBits must be refused with 400 before any
// engine is built. One asking for an engine within the bounds but wider
// than 16 dimensions or 64 hash bits is not sent: the time to build an
// engine grows steeply with its size (on a 2-vCPU host 3 ms at d = 16,
// 0.11 s at d = 128), time the fuzzer would spend there instead of on
// the import path.
//
// The seeds run in plain `go test`; explore further with
//
//	go test -run '^$' -fuzz '^FuzzSessionImport$' -fuzztime 30s -fuzzminimizetime 1s ./internal/serve/
//
// (without the short minimization budget, minimizing the first new
// input, a few hundred bytes of export reply, takes the whole run).
func FuzzSessionImport(f *testing.F) {
	src := New(Config{Replicas: 1})
	var exports [][]byte
	for _, op := range []string{
		`{"head_dim":8,"p":0.5,"t":0.125,"capacity":16}`,
		`{"head_dim":8,"hash_bits":16,"seed":3,"quantized":true,"p":0.5}`,
		`{"head_dim":4,"backend":"linear-scan"}`,
	} {
		id := importFuzzCall(f, src, "/v1/sessions", op, nil).ID
		var d wire.SessionCreateRequest
		if err := json.Unmarshal([]byte(op), &d); err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			importFuzzCall(f, src, "/v1/sessions/"+id+"/append", importFuzzRow("key", "value", d.HeadDim, i), nil)
		}
		var exp json.RawMessage
		importFuzzCall(f, src, "/v1/sessions/"+id+"/export", `{}`, &exp)
		exports = append(exports, exp)
	}
	src.Close()
	for _, exp := range exports {
		f.Add([]byte(`{"op":` + string(exp) + `}`))
	}
	exp := string(exports[0])
	for _, seed := range []string{
		`{"client_id":"c","priority":"batch","op":` + exp + `}`,
		`{"op":` + exp[:len(exp)/2],
		`{"op":` + strings.Replace(exp, `"state":"U1NMRQ`, `"state":"AAAAAA`, 1) + `}`,
		`{"op":` + strings.Replace(exp, `"head_dim":8`, `"head_dim":4`, 1) + `}`,
		`{"op":` + strings.Replace(exp, `"p":0.5`, `"p":-1`, 1) + `}`,
		// Engines over the bounds; encoding/json takes a repeated key's
		// last value.
		`{"op":` + exp[:len(exp)-1] + `,"head_dim":1000}}`,
		`{"op":` + exp[:len(exp)-1] + `,"hash_bits":1024}}`,
		`{"op":{"id":"a","state":"","head_dim":8}}`,
		`{"op":{"id":" ","state":"AAAA","head_dim":8}}`,
		`{"op":{"id":"a","state":"AAAA"}}`,
		`{"op":null}`,
		exp,
	} {
		f.Add([]byte(seed))
	}

	srv := New(Config{Replicas: 1})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var env wire.Envelope[*wire.SessionImportRequest]
		decoded := json.Unmarshal(body, &env) == nil && env.Op != nil
		oversize := decoded && (env.Op.HeadDim > maxHeadDim || env.Op.HashBits > maxHashBits)
		if decoded && !oversize && (env.Op.HeadDim > 16 || env.Op.HashBits > 64) {
			return
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions/import", bytes.NewReader(body)))
		if oversize && w.Code != http.StatusBadRequest {
			t.Fatalf("import of head_dim %d, hash_bits %d answered %d, want 400: %s",
				env.Op.HeadDim, env.Op.HashBits, w.Code, w.Body)
		}
		if w.Code != http.StatusOK {
			if w.Code < 400 || w.Code > 499 {
				t.Fatalf("import answered %d, want 200 or 4xx: %s", w.Code, w.Body)
			}
			return
		}
		if !decoded {
			t.Fatalf("import accepted a body encoding/json refuses: %s", w.Body)
		}
		var reply wire.SessionImportResponse
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply.ID != env.Op.ID {
			t.Fatalf("import reply %s for id %q: %v", w.Body, env.Op.ID, err)
		}
		path := "/v1/sessions/" + url.PathEscape(reply.ID)
		defer srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, path, nil))
		var app wire.SessionAppendResponse
		importFuzzCall(t, srv, path+"/append", importFuzzRow("key", "value", env.Op.HeadDim, 0), &app)
		var q wire.SessionQueryResponse
		importFuzzCall(t, srv, path+"/query", importFuzzRow("q", "", env.Op.HeadDim, 1), &q)
		if app.Len != reply.Len+1 || q.Len != reply.Len+1 || len(q.Context) != env.Op.HeadDim {
			t.Fatalf("imported %d tokens: append reports %d, query %d with %d outputs (head_dim %d)",
				reply.Len, app.Len, q.Len, len(q.Context), env.Op.HeadDim)
		}
	})
}

// importFuzzRow is an op carrying one d-wide row under key (and the same
// row under value, unless value is empty).
func importFuzzRow(key, value string, d, salt int) string {
	row := make([]string, d)
	for i := range row {
		row[i] = fmt.Sprint(float32((i+salt)%5)/4 - 0.5)
	}
	vec := "[" + strings.Join(row, ",") + "]"
	if value == "" {
		return `{"` + key + `":` + vec + `}`
	}
	return `{"` + key + `":` + vec + `,"` + value + `":` + vec + `}`
}

// importFuzzCall posts op in a v1 envelope to path on srv, fails tb
// unless it answers 200, and decodes the reply into out (a
// SessionCreateResponse when out is nil, which it returns).
func importFuzzCall(tb testing.TB, srv *Server, path, op string, out any) wire.SessionCreateResponse {
	tb.Helper()
	var created wire.SessionCreateResponse
	if out == nil {
		out = &created
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"op":`+op+`}`)))
	if w.Code != http.StatusOK {
		tb.Fatalf("%s answered %d: %s", path, w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		tb.Fatalf("%s reply: %v", path, err)
	}
	return created
}
