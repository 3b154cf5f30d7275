package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"elsa/internal/wire"
)

// FuzzStepWave drives arbitrary bodies through the POST
// /v1/sessions/step decode path exactly as the handler runs it before
// any session is touched: decodeEnvelope, then unpackStep.
// Every body must either pass both, leaving every entry one non-empty
// query, or be answered 400, and none may panic. A packed query may only
// allocate what the body pays for: four bytes of float per 5⅓ bytes of
// base64.
//
// The seeds run in plain `go test`; explore further with
//
//	go test -run '^$' -fuzz '^FuzzStepWave$' -fuzztime 30s ./internal/serve/
func FuzzStepWave(f *testing.F) {
	for _, seed := range []string{
		`{"op":{"queries":[{"id":"a","q":[1,0]},{"id":"b","q":[0.5,-2],"t":-0.25}]}}`,
		`{"client_id":"c","deadline_ms":50,"op":{"queries":[{"id":"a","qp":"AACAPwAAAAA="}],"packed":true}}`,
		`{"op":{"queries":[{"id":"a","qp":"AACAPwAAAAA=","backend":"linear-scan"},{"id":"b","q":[1,0]}]}}`,
		// No entries, and a null wave.
		`{"op":{"queries":[]}}`,
		`{"op":{"queries":null}}`,
		`{"op":{}}`,
		// Both q and qp; neither; an empty packed query.
		`{"op":{"queries":[{"id":"a","q":[1],"qp":"AACAPw=="}]}}`,
		`{"op":{"queries":[{"id":"a"}]}}`,
		`{"op":{"queries":[{"id":"a","qp":""}]}}`,
		// Bad base64, and base64 that is not whole floats.
		`{"op":{"queries":[{"id":"a","qp":"!!!!"}]}}`,
		`{"op":{"queries":[{"id":"a","qp":"AACAPwAAAAA"}]}}`,
		`{"op":{"queries":[{"id":"a","qp":"AAA="}]}}`,
		// A NaN query, which the stream rejects per entry later.
		`{"op":{"queries":[{"id":"a","qp":"AADAfw=="}]}}`,
		// Malformed and bare bodies.
		`{"op":{"queries":[{"id":"a","q":[1,0]`,
		`{"queries":[{"id":"a","q":[1,0]}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/step", bytes.NewReader(body))
		w := httptest.NewRecorder()
		var req wire.SessionStepRequest
		if _, ok := decodeEnvelope(w, r, 1<<20, &req); !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("decode rejected with %d, want 400", w.Code)
			}
			return
		}
		packedLen := make([]int, len(req.Queries)) // base64 bytes per entry
		for i, q := range req.Queries {
			packedLen[i] = len(q.QPacked)
		}
		if err := unpackStep(&req); err != nil {
			return // the handler answers 400 with err
		}
		for i, q := range req.Queries {
			if len(q.Q) == 0 {
				t.Fatalf("queries[%d] accepted without a query", i)
			}
			if packedLen[i] > 0 && 16*cap(q.Q) > 3*packedLen[i] {
				t.Fatalf("queries[%d]: %d floats allocated from %d base64 bytes", i, cap(q.Q), packedLen[i])
			}
		}
	})
}
