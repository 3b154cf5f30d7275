package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"elsa"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// envelope is the v1 envelope around an op already marshaled.
type envelope = wire.Envelope[json.RawMessage]

// refusalCall sends one request straight to srv's handler, wrapping op
// (when non-nil) in the v1 envelope env.
func refusalCall(t *testing.T, srv *Server, method, path string, env envelope, op any) *httptest.ResponseRecorder {
	t.Helper()
	var body string
	if op != nil {
		raw, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		env.Op = raw
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		body = string(b)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// refusalSession creates an exact session for clientID holding n tokens
// and returns its ID.
func refusalSession(t *testing.T, srv *Server, clientID string, n int) string {
	t.Helper()
	rec := refusalCall(t, srv, http.MethodPost, "/v1/sessions", envelope{ClientID: clientID},
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed})
	var created wire.SessionCreateResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		t.Fatalf("create: status %d (%s)", rec.Code, rec.Body)
	}
	if n > 0 {
		app := wire.SessionAppendRequest{}
		for i := 0; i < n; i++ {
			app.Keys = append(app.Keys, refusalVec(i))
			app.Values = append(app.Values, refusalVec(i+1))
		}
		if rec := refusalCall(t, srv, http.MethodPost, "/v1/sessions/"+created.ID+"/append", envelope{}, app); rec.Code != http.StatusOK {
			t.Fatalf("append: status %d (%s)", rec.Code, rec.Body)
		}
	}
	return created.ID
}

// refusalAppend appends op to a fresh one-token session of srv and
// returns the reply, after checking that a refused append left the
// session's length as it was.
func refusalAppend(t *testing.T, srv *Server, op wire.SessionAppendRequest) *httptest.ResponseRecorder {
	t.Helper()
	id := refusalSession(t, srv, "", 1)
	rec := refusalCall(t, srv, http.MethodPost, "/v1/sessions/"+id+"/append", envelope{}, op)
	if rec.Code != http.StatusOK {
		s, err := srv.sessions.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.stream.Len(); n != 1 {
			t.Errorf("refused append left the session at %d tokens, want 1", n)
		}
	}
	return rec
}

// refusalVec is a deterministic testDim-wide vector.
func refusalVec(i int) []float32 {
	v := make([]float32, testDim)
	v[i%testDim] = 1
	v[(i+3)%testDim] = -0.5
	return v
}

// refusalExport returns an import request carrying an n-token session's
// exported state, taken from a fresh default server.
func refusalExport(t *testing.T, n int) wire.SessionImportRequest {
	t.Helper()
	src := New(Config{Replicas: 1})
	defer src.Close()
	id := refusalSession(t, src, "", n)
	rec := refusalCall(t, src, http.MethodPost, "/v1/sessions/"+id+"/export", envelope{}, struct{}{})
	var exp wire.SessionExportResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &exp) != nil {
		t.Fatalf("export: status %d (%s)", rec.Code, rec.Body)
	}
	return wire.SessionImportRequest{ID: exp.ID, State: exp.State, HeadDim: exp.HeadDim, Seed: exp.Seed, P: exp.P}
}

// refusalSet is the replica set a default exact session of refusalSession
// runs on.
func refusalSet(t *testing.T, srv *Server) *replicaSet {
	t.Helper()
	set, err := srv.pool.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// refusalHold holds every lane of srv's default set busy with a gated
// blocker. The gates open after release (0 = at cleanup), which must
// come before the server closes.
func refusalHold(t *testing.T, srv *Server, release time.Duration) {
	t.Helper()
	set := refusalSet(t, srv)
	gates := gateLanes(srv.disp, set)
	t.Cleanup(func() { openAll(gates) })
	occupy(t, srv.disp, set, gates)
	if release > 0 {
		time.AfterFunc(release, func() { openAll(gates) })
	}
}

// refusalFillQueue makes srv's dispatcher queue read full until cleanup.
func refusalFillQueue(t *testing.T, srv *Server) {
	t.Helper()
	set := func(n int) {
		srv.disp.mu.Lock()
		srv.disp.queued = n
		srv.disp.mu.Unlock()
	}
	set(srv.disp.maxQueue)
	t.Cleanup(func() { set(0) })
}

// TestRefusalStatusTable drives every reachable refusal of every
// endpoint and pins its status, whether it carries Retry-After, and its
// error text (a step wave answers 200 and carries the refusal in its
// entry). This is the wire contract the handlers' error handling owes.
func TestRefusalStatusTable(t *testing.T) {
	attendOp := wire.AttendRequest{Q: [][]float32{refusalVec(0)}, K: [][]float32{refusalVec(1)},
		V: [][]float32{refusalVec(2)}, HeadDim: testDim, Seed: testSeed}
	quota := Config{Replicas: 1, QuotaRPS: 0.001, QuotaBurst: 1}
	for _, tc := range []struct {
		name   string
		cfg    Config
		do     func(t *testing.T, srv *Server) *httptest.ResponseRecorder
		status int
		retry  bool
		text   string
		prefix bool // text is a prefix of the error, not all of it
	}{
		{
			name: "attend/400",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{}, wire.AttendRequest{K: attendOp.K, V: attendOp.V})
			},
			status: http.StatusBadRequest, text: "q must have at least one row",
		},
		{
			name: "attend/429 queue",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				refusalFillQueue(t, srv)
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{}, attendOp)
			},
			status: http.StatusTooManyRequests, retry: true, text: "serve: dispatcher queue full",
		},
		{
			name: "attend/429 deadline",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				// An idle lane charges no wait, so every lane is held.
				set, err := srv.pool.get(attendEngineOptions(&attendOp))
				if err != nil {
					t.Fatal(err)
				}
				gates := gateLanes(srv.disp, set)
				t.Cleanup(func() { openAll(gates) })
				occupy(t, srv.disp, set, gates)
				srv.disp.mu.Lock()
				srv.disp.svcEWMA = time.Hour.Seconds()
				srv.disp.mu.Unlock()
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{DeadlineMS: 1000}, attendOp)
			},
			status: http.StatusTooManyRequests, retry: true, text: "serve: deadline cannot cover estimated queue wait",
		},
		{
			name: "attend/429 quota",
			cfg:  quota,
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				if rec := refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{ClientID: "a"}, attendOp); rec.Code != http.StatusOK {
					t.Fatalf("first attend: status %d (%s)", rec.Code, rec.Body)
				}
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{ClientID: "a"}, attendOp)
			},
			status: http.StatusTooManyRequests, retry: true, text: "client quota exhausted",
		},
		{
			name: "attend/503 no workers",
			cfg:  Config{Replicas: -1},
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{}, attendOp)
			},
			status: http.StatusServiceUnavailable, retry: true, text: "serve: no available workers",
		},
		{
			name: "attend/503 closed",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				srv.disp.close()
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{}, attendOp)
			},
			status: http.StatusServiceUnavailable, text: "serve: server shutting down",
		},
		{
			name: "attend/504",
			cfg:  Config{Replicas: 1, RequestTimeout: 100 * time.Millisecond},
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				refusalHold(t, srv, 0)
				return refusalCall(t, srv, http.MethodPost, "/v1/attend", envelope{}, attendOp)
			},
			status: http.StatusGatewayTimeout, text: "request timed out",
		},
		{
			name: "create/503 draining",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				refusalCall(t, srv, http.MethodPost, "/v1/drain", envelope{}, nil)
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions", envelope{}, wire.SessionCreateRequest{HeadDim: testDim})
			},
			status: http.StatusServiceUnavailable, retry: true, text: "serve: server draining, not accepting new sessions",
		},
		{
			name: "create/400 config",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions", envelope{}, wire.SessionCreateRequest{})
			},
			status: http.StatusBadRequest, text: "head_dim must be > 0",
		},
		{
			name: "create/429 quota",
			cfg:  quota,
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				refusalSession(t, srv, "c", 0)
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions", envelope{ClientID: "c"}, wire.SessionCreateRequest{HeadDim: testDim})
			},
			status: http.StatusTooManyRequests, retry: true, text: "client quota exhausted",
		},
		{
			name: "import/503 draining",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				imp := refusalExport(t, 1)
				refusalCall(t, srv, http.MethodPost, "/v1/drain", envelope{}, nil)
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{}, imp)
			},
			status: http.StatusServiceUnavailable, retry: true, text: "serve: server draining, not accepting new sessions",
		},
		{
			name: "import/400 config",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				imp := refusalExport(t, 1)
				imp.HeadDim = 0
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{}, imp)
			},
			status: http.StatusBadRequest, text: "head_dim must be > 0",
		},
		{
			name: "import/429 quota",
			cfg:  quota,
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				imp := refusalExport(t, 1)
				if rec := refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{ClientID: "i"}, imp); rec.Code != http.StatusOK {
					t.Fatalf("first import: status %d (%s)", rec.Code, rec.Body)
				}
				imp.ID += "-2"
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{ClientID: "i"}, imp)
			},
			status: http.StatusTooManyRequests, retry: true, text: "client quota exhausted",
		},
		{
			name: "import/409 duplicate",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				imp := refusalExport(t, 1)
				if rec := refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{}, imp); rec.Code != http.StatusOK {
					t.Fatalf("first import: status %d (%s)", rec.Code, rec.Body)
				}
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{}, imp)
			},
			status: http.StatusConflict, text: "serve: session already exists",
		},
		{
			name: "import/413",
			cfg:  Config{Replicas: 1, MaxSessionTokens: 2},
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{}, refusalExport(t, 3))
			},
			status: http.StatusRequestEntityTooLarge, text: "serve: session token limit reached",
		},
		{
			name: "import/400 state",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				imp := refusalExport(t, 1)
				imp.State = []byte("not a stream")
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/import", envelope{}, imp)
			},
			status: http.StatusBadRequest, text: "import: ", prefix: true,
		},
		{
			name: "append/404",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/nope/append", envelope{},
					wire.SessionAppendRequest{Key: refusalVec(0), Value: refusalVec(1)})
			},
			status: http.StatusNotFound, text: "serve: session not found",
		},
		{
			name: "append/413",
			cfg:  Config{Replicas: 1, MaxSessionTokens: 2},
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				id := refusalSession(t, srv, "", 0)
				app := wire.SessionAppendRequest{Keys: [][]float32{refusalVec(0), refusalVec(1), refusalVec(2)},
					Values: [][]float32{refusalVec(3), refusalVec(4), refusalVec(5)}}
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/"+id+"/append", envelope{}, app)
			},
			status: http.StatusRequestEntityTooLarge, text: "serve: session token limit reached",
		},
		{
			name: "append/400 kp beside keys",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalAppend(t, srv, wire.SessionAppendRequest{Keys: [][]float32{refusalVec(0)}, Values: [][]float32{refusalVec(1)},
					KP: client.PackRows([][]float32{refusalVec(0)}), VP: client.PackRows([][]float32{refusalVec(1)})})
			},
			status: http.StatusBadRequest, text: "kp/vp and key/value/keys/values are mutually exclusive",
		},
		{
			name: "append/400 bad base64",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalAppend(t, srv, wire.SessionAppendRequest{KP: []string{"!!!!"}, VP: client.PackRows([][]float32{refusalVec(1)})})
			},
			status: http.StatusBadRequest, text: "kp row 0: packed vector: illegal base64 data at input byte 0",
		},
		{
			name: "append/400 partial float",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalAppend(t, srv, wire.SessionAppendRequest{KP: client.PackRows([][]float32{refusalVec(0)}), VP: []string{"AACA"}})
			},
			status: http.StatusBadRequest, text: "vp row 0: packed vector is 3 bytes, not a multiple of 4",
		},
		{
			name: "append/400 non-finite",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				bad := refusalVec(1)
				bad[2] = float32(math.Inf(-1))
				return refusalAppend(t, srv, wire.SessionAppendRequest{KP: client.PackRows([][]float32{refusalVec(0), bad}),
					VP: client.PackRows([][]float32{refusalVec(2), refusalVec(3)})})
			},
			status: http.StatusBadRequest, text: "kp row 1 element 2 is not finite (-Inf)",
		},
		{
			name: "append/400 row counts",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalAppend(t, srv, wire.SessionAppendRequest{KP: client.PackRows([][]float32{refusalVec(0), refusalVec(1)}),
					VP: client.PackRows([][]float32{refusalVec(2)})})
			},
			status: http.StatusBadRequest, text: "2 keys but 1 values",
		},
		{
			name: "append/400 ragged",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalAppend(t, srv, wire.SessionAppendRequest{Keys: [][]float32{refusalVec(0), refusalVec(1)[:2]},
					Values: [][]float32{refusalVec(2), refusalVec(3)}})
			},
			status: http.StatusBadRequest, text: fmt.Sprintf("elsa: attention: stream append with dims 2/%d, engine built for %d", testDim, testDim),
		},
		{
			name: "query/404",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/nope/query", envelope{}, wire.SessionQueryRequest{Q: refusalVec(0)})
			},
			status: http.StatusNotFound, text: "serve: session not found",
		},
		{
			name: "query/429",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				id := refusalSession(t, srv, "", 1)
				refusalFillQueue(t, srv)
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/"+id+"/query", envelope{}, wire.SessionQueryRequest{Q: refusalVec(0)})
			},
			status: http.StatusTooManyRequests, retry: true, text: "serve: dispatcher queue full",
		},
		{
			name: "query/504",
			cfg:  Config{Replicas: 1, RequestTimeout: 100 * time.Millisecond},
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				id := refusalSession(t, srv, "", 1)
				// A queued decode step is always answered by a lane, so the
				// lane frees after the request's budget has run out.
				refusalHold(t, srv, 400*time.Millisecond)
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/"+id+"/query", envelope{}, wire.SessionQueryRequest{Q: refusalVec(0)})
			},
			status: http.StatusGatewayTimeout, text: "request timed out",
		},
		{
			name: "step entry/quota",
			cfg:  quota,
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				id := refusalSession(t, srv, "s", 0)
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/step", envelope{},
					wire.SessionStepRequest{Queries: []wire.SessionStepQuery{{ID: id, Q: refusalVec(0)}}})
			},
			status: http.StatusOK, text: "client quota exhausted",
		},
		{
			name: "export/404",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/nope/export", envelope{}, struct{}{})
			},
			status: http.StatusNotFound, text: "serve: session not found",
		},
		{
			name: "export/409 not exportable",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				id := refusalSession(t, srv, "", 1)
				// A remote-pinned session whose shadow mirror is gone.
				s, err := srv.sessions.lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				s.remote = &client.Session{}
				defer func() { s.remote = nil }()
				return refusalCall(t, srv, http.MethodPost, "/v1/sessions/"+id+"/export", envelope{}, struct{}{})
			},
			status: http.StatusConflict, text: "serve: session state not locally available for export",
		},
		{
			name: "delete/404",
			do: func(t *testing.T, srv *Server) *httptest.ResponseRecorder {
				return refusalCall(t, srv, http.MethodDelete, "/v1/sessions/nope", envelope{}, nil)
			},
			status: http.StatusNotFound, text: "serve: session not found",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Replicas == 0 {
				cfg.Replicas = 1
			}
			srv := New(cfg)
			t.Cleanup(srv.Close)
			rec := tc.do(t, srv)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.retry {
				t.Errorf("Retry-After set = %v, want %v (%q)", got, tc.retry, rec.Header().Get("Retry-After"))
			}
			var body struct {
				Error   string `json:"error"`
				Results []struct {
					Error string `json:"error"`
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q: %v", rec.Body, err)
			}
			text := body.Error
			if len(body.Results) == 1 {
				text = body.Results[0].Error
			}
			if text != tc.text && !(tc.prefix && strings.HasPrefix(text, tc.text)) {
				t.Errorf("error %q, want %q", text, tc.text)
			}
		})
	}
}
