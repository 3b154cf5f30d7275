package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"elsa"
	"elsa/internal/wire"
)

// refEngine builds the reference engine matching the test server's
// implied configuration.
func refEngine(t *testing.T) *elsa.Engine {
	t.Helper()
	eng, err := elsa.New(elsa.Options{HeadDim: testDim, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sameMatrix(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestAttendBackendSelection drives the per-request backend selector on
// POST /v1/attend: each named backend's output must be bit-identical to
// the corresponding direct library call, an unknown name and a
// backend+approximate combination are both 400s.
func TestAttendBackendSelection(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(61))
	q, k, v := genOp(rng, 4, 24)
	eng := refEngine(t)
	wantScan, err := eng.AttendLinearScan(q, k, v)
	if err != nil {
		t.Fatal(err)
	}
	wantScores, err := eng.Attend(q, k, v, elsa.Exact())
	if err != nil {
		t.Fatal(err)
	}

	base := wire.AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed}
	for _, tc := range []struct {
		backend string
		want    [][]float32
	}{
		{elsa.BackendLinearScan, wantScan.Context},
		{elsa.BackendScores, wantScores.Context},
	} {
		req := base
		req.Backend = tc.backend
		var got wire.AttendResponse
		if code := doJSON(t, client, "POST", ts.URL+"/v1/attend", req, &got); code != http.StatusOK {
			t.Fatalf("backend %q: status %d", tc.backend, code)
		}
		if !sameMatrix(got.Context, tc.want) {
			t.Errorf("backend %q: context differs from direct library call", tc.backend)
		}
	}

	// Unknown backend name: 400, not silent fallback.
	req := base
	req.Backend = "bogus"
	if code := doJSON(t, client, "POST", ts.URL+"/v1/attend", req, nil); code != http.StatusBadRequest {
		t.Errorf("unknown backend: status %d, want 400", code)
	}
	// An exact backend cannot run an approximate operating point.
	req = base
	req.Backend = elsa.BackendLinearScan
	req.P = 1
	if code := doJSON(t, client, "POST", ts.URL+"/v1/attend", req, nil); code != http.StatusBadRequest {
		t.Errorf("backend with p>0: status %d, want 400", code)
	}
}

// TestServerDefaultExactBackend covers -exact-backend: a server-wide
// default applies to exact ops that did not pin a backend, while explicit
// per-request selectors and approximate ops are untouched.
func TestServerDefaultExactBackend(t *testing.T) {
	srv := New(Config{ExactBackend: elsa.BackendLinearScan})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(62))
	q, k, v := genOp(rng, 3, 20)
	eng := refEngine(t)
	wantScan, err := eng.AttendLinearScan(q, k, v)
	if err != nil {
		t.Fatal(err)
	}
	wantScores, err := eng.Attend(q, k, v, elsa.Exact())
	if err != nil {
		t.Fatal(err)
	}

	// p=0 with no backend: rides the server default (linear scan).
	var got wire.AttendResponse
	req := wire.AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/attend", req, &got); code != http.StatusOK {
		t.Fatalf("default backend attend: status %d", code)
	}
	if !sameMatrix(got.Context, wantScan.Context) {
		t.Error("exact op did not ride the server's default linear-scan backend")
	}
	// An explicit per-request selector still wins.
	req.Backend = elsa.BackendScores
	if code := doJSON(t, client, "POST", ts.URL+"/v1/attend", req, &got); code != http.StatusOK {
		t.Fatalf("explicit scores attend: status %d", code)
	}
	if !sameMatrix(got.Context, wantScores.Context) {
		t.Error("explicit scores selector did not override the server default")
	}
	// An approximate op must stay on the filter pipeline regardless of the
	// server default: it still answers 200 without a backend error.
	req.Backend = ""
	req.P = 1
	if code := doJSON(t, client, "POST", ts.URL+"/v1/attend", req, &got); code != http.StatusOK {
		t.Fatalf("approximate op under default backend: status %d", code)
	}
}

// TestSessionBackendDecode pins the session-level selector: a session
// created with backend "linear-scan" answers every decode query
// bit-identically to a directly-driven Stream.QueryLinearScan, and a
// per-query selector overrides a session that did not pin one.
func TestSessionBackendDecode(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(63))
	eng := refEngine(t)
	direct := eng.NewStream(64)

	var pinned wire.SessionCreateResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed, Backend: elsa.BackendLinearScan},
		&pinned); code != http.StatusOK {
		t.Fatalf("create pinned session: status %d", code)
	}
	var auto wire.SessionCreateResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed}, &auto); code != http.StatusOK {
		t.Fatalf("create auto session: status %d", code)
	}

	const tokens = 24
	for i := 0; i < tokens; i++ {
		key, value := genVec(rng), genVec(rng)
		if err := direct.Append(key, value); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{pinned.ID, auto.ID} {
			if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+id+"/append",
				wire.SessionAppendRequest{Key: key, Value: value}, nil); code != http.StatusOK {
				t.Fatalf("append token %d: status %d", i, code)
			}
		}

		qv := genVec(rng)
		want, _, err := direct.QueryLinearScan(nil, qv)
		if err != nil {
			t.Fatal(err)
		}
		// Session-pinned backend: no per-query selector needed.
		var got wire.SessionQueryResponse
		if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+pinned.ID+"/query",
			wire.SessionQueryRequest{Q: qv}, &got); code != http.StatusOK {
			t.Fatalf("pinned query %d: status %d", i, code)
		}
		if !sameMatrix([][]float32{got.Context}, [][]float32{want}) {
			t.Fatalf("token %d: pinned-session context differs from direct QueryLinearScan", i)
		}
		if got.Candidates != i+1 {
			t.Fatalf("token %d: linear scan must attend the whole prefix, candidates %d", i, got.Candidates)
		}
		// Per-query selector on the unpinned session.
		if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+auto.ID+"/query",
			wire.SessionQueryRequest{Q: qv, Backend: elsa.BackendLinearScan}, &got); code != http.StatusOK {
			t.Fatalf("override query %d: status %d", i, code)
		}
		if !sameMatrix([][]float32{got.Context}, [][]float32{want}) {
			t.Fatalf("token %d: per-query override context differs from direct QueryLinearScan", i)
		}
	}

	// backend and t are mutually exclusive on a query.
	tv := 0.5
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+auto.ID+"/query",
		wire.SessionQueryRequest{Q: genVec(rng), Backend: elsa.BackendLinearScan, T: &tv}, nil); code != http.StatusBadRequest {
		t.Errorf("backend+t query: status %d, want 400", code)
	}
	// Creating an approximate session with a pinned exact backend is a 400.
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed, P: 1, Backend: elsa.BackendLinearScan},
		nil); code != http.StatusBadRequest {
		t.Errorf("backend with p>0 create: status %d, want 400", code)
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed, Backend: "bogus"},
		nil); code != http.StatusBadRequest {
		t.Errorf("unknown backend create: status %d, want 400", code)
	}
}

// TestSessionStepBackendPerEntry runs a mixed step wave: one entry rides
// its session's pinned linear scan, one selects it per query, and an
// entry combining backend with t fails alone without poisoning the wave.
func TestSessionStepBackendPerEntry(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(64))
	eng := refEngine(t)
	direct := eng.NewStream(32)

	var pinned, auto wire.SessionCreateResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed, Backend: elsa.BackendLinearScan},
		&pinned); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed}, &auto); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	for i := 0; i < 12; i++ {
		key, value := genVec(rng), genVec(rng)
		if err := direct.Append(key, value); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{pinned.ID, auto.ID} {
			if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+id+"/append",
				wire.SessionAppendRequest{Key: key, Value: value}, nil); code != http.StatusOK {
				t.Fatalf("append: status %d", code)
			}
		}
	}

	qv := genVec(rng)
	want, _, err := direct.QueryLinearScan(nil, qv)
	if err != nil {
		t.Fatal(err)
	}
	tv := 0.5
	var wave wire.SessionStepResponse
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sessions/step", wire.SessionStepRequest{
		Queries: []wire.SessionStepQuery{
			{ID: pinned.ID, Q: qv},
			{ID: auto.ID, Q: qv, Backend: elsa.BackendLinearScan},
			{ID: auto.ID, Q: qv, Backend: elsa.BackendLinearScan, T: &tv},
		},
	}, &wave); code != http.StatusOK {
		t.Fatalf("step wave: status %d", code)
	}
	if len(wave.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(wave.Results))
	}
	for i := 0; i < 2; i++ {
		r := wave.Results[i]
		if r.Error != "" {
			t.Fatalf("entry %d failed: %s", i, r.Error)
		}
		if !sameMatrix([][]float32{r.Context}, [][]float32{want}) {
			t.Errorf("entry %d: context differs from direct QueryLinearScan", i)
		}
	}
	if wave.Results[2].Error == "" {
		t.Error("backend+t entry should fail per-entry")
	}
}

// TestMigrationPreservesBackend exports a linear-scan-pinned session from
// one server and imports it into another: the export carries the backend
// and the adopted session keeps answering through the linear scan.
func TestMigrationPreservesBackend(t *testing.T) {
	mkServer := func() (*Server, *httptest.Server) {
		srv := New(Config{})
		ts := httptest.NewServer(srv)
		return srv, ts
	}
	srvA, tsA := mkServer()
	defer srvA.Close()
	defer tsA.Close()
	srvB, tsB := mkServer()
	defer srvB.Close()
	defer tsB.Close()
	client := tsA.Client()

	rng := rand.New(rand.NewSource(65))
	eng := refEngine(t)
	direct := eng.NewStream(32)

	var created wire.SessionCreateResponse
	if code := doJSON(t, client, "POST", tsA.URL+"/v1/sessions",
		wire.SessionCreateRequest{HeadDim: testDim, Seed: testSeed, Backend: elsa.BackendLinearScan},
		&created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	for i := 0; i < 16; i++ {
		key, value := genVec(rng), genVec(rng)
		if err := direct.Append(key, value); err != nil {
			t.Fatal(err)
		}
		if code := doJSON(t, client, "POST", tsA.URL+"/v1/sessions/"+created.ID+"/append",
			wire.SessionAppendRequest{Key: key, Value: value}, nil); code != http.StatusOK {
			t.Fatalf("append: status %d", code)
		}
	}

	var exported wire.SessionExportResponse
	if code := doJSON(t, client, "POST", tsA.URL+"/v1/sessions/"+created.ID+"/export",
		struct{}{}, &exported); code != http.StatusOK {
		t.Fatalf("export: status %d", code)
	}
	if exported.Backend != elsa.BackendLinearScan {
		t.Fatalf("export backend %q, want %q", exported.Backend, elsa.BackendLinearScan)
	}

	var imported wire.SessionImportResponse
	if code := doJSON(t, client, "POST", tsB.URL+"/v1/sessions/import", wire.SessionImportRequest{
		ID: exported.ID, State: exported.State, Capacity: exported.Capacity,
		HeadDim: exported.HeadDim, HashBits: exported.HashBits,
		Seed: exported.Seed, Quantized: exported.Quantized,
		P: exported.P, Threshold: exported.Threshold, Backend: exported.Backend,
	}, &imported); code != http.StatusOK {
		t.Fatalf("import: status %d", code)
	}
	if imported.Len != exported.Len {
		t.Fatalf("imported len %d, want %d", imported.Len, exported.Len)
	}

	qv := genVec(rng)
	want, _, err := direct.QueryLinearScan(nil, qv)
	if err != nil {
		t.Fatal(err)
	}
	var got wire.SessionQueryResponse
	if code := doJSON(t, client, "POST", tsB.URL+"/v1/sessions/"+created.ID+"/query",
		wire.SessionQueryRequest{Q: qv}, &got); code != http.StatusOK {
		t.Fatalf("post-import query: status %d", code)
	}
	if !sameMatrix([][]float32{got.Context}, [][]float32{want}) {
		t.Error("adopted session lost its linear-scan pin: context differs from direct QueryLinearScan")
	}
}
