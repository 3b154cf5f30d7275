package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"elsa/internal/wire"
)

// FuzzClusterJoin drives arbitrary bodies through a frontend's POST
// /v1/cluster/join handler. Every body must be answered 200 or 4xx and
// none may panic; a heartbeat_ms whose expiry arithmetic would overflow,
// and a weight above MaxWeight, must be refused with 400. An accepted member must then appear, alone,
// in GET /v1/cluster with the state the reply named, the weight and
// capacity it sent and a recorded heartbeat.
//
// Each body meets a fresh frontend that is already closed: its fleet
// admits no worker, so the join lands in the membership table without a
// probe, and no address a body names is ever dialed.
//
// The seeds run in plain `go test`; explore further with
//
//	go test -run '^$' -fuzz '^FuzzClusterJoin$' -fuzztime 30s ./internal/serve/
func FuzzClusterJoin(f *testing.F) {
	max := strconv.FormatInt(maxHeartbeatMS, 10)
	over := strconv.FormatInt(maxHeartbeatMS+1, 10)
	for _, seed := range []string{
		`{"op":{"addr":"127.0.0.1:1"}}`,
		`{"op":{"addr":"http://127.0.0.1:1","weight":2,"max_sessions":8,"heartbeat_ms":1000,"incarnation":7}}`,
		`{"op":{"addr":" 127.0.0.1:1 ","draining":true,"incarnation":1}}`,
		`{"client_id":"w","op":{"addr":"127.0.0.1:1","heartbeat_ms":` + max + `}}`,
		// Intervals whose heartbeatMiss multiple, or whose conversion to
		// a time.Duration, overflows int64.
		`{"op":{"addr":"127.0.0.1:1","heartbeat_ms":` + over + `}}`,
		`{"op":{"addr":"127.0.0.1:1","heartbeat_ms":9223372036855}}`,
		`{"op":{"addr":"127.0.0.1:1","heartbeat_ms":9223372036854775807}}`,
		// The largest weight, one over it, and one whose ring would
		// take seconds to build.
		`{"op":{"addr":"127.0.0.1:1","weight":` + strconv.Itoa(MaxWeight) + `}}`,
		`{"op":{"addr":"127.0.0.1:1","weight":` + strconv.Itoa(MaxWeight+1) + `}}`,
		`{"op":{"addr":"127.0.0.1:1","weight":2147483647}}`,
		// Refusals: no addr, negatives, wrong types, bare and malformed.
		`{"op":{"addr":"  "}}`,
		`{"op":{"addr":"127.0.0.1:1","weight":-1}}`,
		`{"op":{"addr":"127.0.0.1:1","heartbeat_ms":-5}}`,
		`{"op":{"addr":"127.0.0.1:1","weight":"2"}}`,
		`{"op":{"addr":"127.0.0.1:1","heartbeat_ms":1e3}}`,
		`{"addr":"127.0.0.1:1"}`,
		`{"op":{"addr":"127.0.0.1:1"`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{})
		srv.Close()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cluster/join", bytes.NewReader(body)))
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code > 499) {
			t.Fatalf("join answered %d, want 200 or 4xx: %s", w.Code, w.Body)
		}
		var env wire.Envelope[*wire.JoinRequest]
		if json.Unmarshal(body, &env) != nil || env.Op == nil {
			if w.Code == http.StatusOK {
				t.Fatalf("join accepted a body encoding/json refuses: %s", w.Body)
			}
			return
		}
		req := env.Op
		if req.HeartbeatMS > maxHeartbeatMS && w.Code != http.StatusBadRequest {
			t.Fatalf("heartbeat_ms %d answered %d, want 400", req.HeartbeatMS, w.Code)
		}
		if req.Weight > MaxWeight && w.Code != http.StatusBadRequest {
			t.Fatalf("weight %d answered %d, want 400", req.Weight, w.Code)
		}
		if w.Code != http.StatusOK {
			return
		}
		var reply wire.JoinResponse
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("join reply: %v: %s", err, w.Body)
		}

		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
		var view wire.ClusterResponse
		if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET /v1/cluster after a join: %d %v: %s", w.Code, err, w.Body)
		}
		if len(view.Members) != 1 || reply.Members != 1 {
			t.Fatalf("one join left %d targets, reply counts %d members", len(view.Members), reply.Members)
		}
		m := view.Members[0]
		if m.Addr != normalizeWorkerAddr(strings.TrimSpace(req.Addr)) || m.State != reply.State ||
			m.Weight != req.Weight || m.MaxSessions != req.MaxSessions || m.HeartbeatAgeMS < 0 {
			t.Fatalf("join of %+v shows as %+v (reply %+v)", *req, m, reply)
		}
	})
}
