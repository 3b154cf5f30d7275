package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// attendSeeds are bodies at the edge of what the attend scanner takes:
// each must decode exactly as encoding/json decodes it, or be refused by
// the scanner and left to encoding/json.
var attendSeeds = []string{
	// Both q and qp for the same matrix.
	`{"op":{"q":[[1,0]],"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Base64 of odd length, and valid base64 that is not whole floats.
	`{"op":{"qp":["AACAPwAAAAA"],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":["AACA"],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":["AAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Ragged packed rows: two floats, then one.
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA=","AACAPw=="],"vp":["AACAPwAAAAA=","AACAPwAAAAA="]}}`,
	// NaN, +Inf and -Inf bits; a NaN ahead of a bad row in one matrix.
	`{"op":{"qp":["AADAfwAAgD8="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":["AACAfwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":["AACA/wAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":["AADAfwAAgD8=","AAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Null and missing op.
	`{"op":null}`,
	`{"client_id":"c","priority":"batch"}`,
	// Empty qp, and a qp holding one empty row.
	`{"op":{"qp":[],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":[""],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Plain and packed mixed across matrices.
	`{"op":{"q":[[1,0]],"kp":["AACAPwAAAAA="],"v":[[3,4]],"p":1,"t":-0.5}}`,
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"backend":"linear-scan"}}`,
	// Every field, in an unusual order, with metadata after the op.
	`{"op":{"seed":-3,"quantized":false,"vp":["AACAPwAAAAA="],"t":0.25,"hash_bits":8,"kp":["////PwAAAAA="],"head_dim":2,"qp":["AACAPwAAAAA="],"p":1e-1,"backend":""},"deadline_ms":-7,"priority":"background","client_id":"ünï ✓"}`,
	// Key case variants, which encoding/json matches case-insensitively.
	`{"op":{"QP":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"OP":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"Client_ID":"c","op":{"qp":["AACAPwAAAAA="],"Kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"P":1}}`,
	// Duplicate keys: encoding/json keeps the last.
	`{"op":{"qp":["AACAPwAAAAA="],"qp":["AAAAAAAAgD8="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"client_id":"a","client_id":"b","op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Escapes: \/ inside a row, \u escapes in a key and in a client id.
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["\/\/\/\/PwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"q\u0070":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"client_id":"\u00fc","op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Raw CR and LF inside a row, which base64 alone would skip, and an
	// escaped one, which JSON unquotes into the row.
	"{\"op\":{\"qp\":[\"AACAPwAA\r\n\r\nAAA=\"],\"kp\":[\"AACAPwAAAAA=\"],\"vp\":[\"AACAPwAAAAA=\"]}}",
	"{\"op\":{\"qp\":[\"AACAPwAA\nAAA=\"],\"kp\":[\"AACAPwAAAAA=\"],\"vp\":[\"AACAPwAAAAA=\"]}}",
	`{"op":{"qp":["AACAPwAA\n\n\n\nAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Nulls beside packed rows.
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"t":null}}`,
	`{"op":{"q":null,"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"q":null,"k":[[1,0]],"kp":["AACAPwAAAAA="],"v":[[1,0]]}}`,
	// Trailing bytes after the object.
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}x`,
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}} {}`,
	// Numbers out of range or of the wrong kind for their field.
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"p":1e400}}`,
	`{"deadline_ms":1e3,"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"seed":9223372036854775808}}`,
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"head_dim":2.0,"p":-0}}`,
	`{"op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="],"p":01}}`,
	// An unknown priority, which both paths answer after the op decodes.
	`{"priority":"urgent","op":{"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`,
	// Whitespace between every token.
	" \t\r\n{ \"client_id\" : \"c\" ,\n\"op\"\t:\r{ \"qp\" : [ \"AACAPwAAAAA=\" ] , \"kp\" : [ \"AACAPwAAAAA=\" ,\n\"AAAAPwAAAD8=\" ] ,\"vp\": [\"AACAPwAAAAA=\" , \"AACAPwAAAEA=\"] , \"p\" : 0.5 , \"quantized\" : true } } \n",
}

// FuzzAttendEnvelope drives arbitrary bodies through the handler's
// /v1/attend decoder and, as the reference, through the encoding/json
// path alone (decodeEnvelope, then unpack, then validate). The two must
// agree on the status and error text, the Q/K/V bits, every other op
// field, the admission metadata and whether the reply goes packed. Every
// body must either leave an op the scheduler can take or be answered
// 400, and none may panic. Packed rows may only allocate what the body
// pays for: four bytes of float per 5⅓ bytes of base64.
//
// The seeds run in plain `go test`; explore further with
//
//	go test -run '^$' -fuzz '^FuzzAttendEnvelope$' -fuzztime 30s ./internal/serve/
func FuzzAttendEnvelope(f *testing.F) {
	for _, tc := range envelopeGolden {
		f.Add([]byte(`{"op":` + tc.bare + `}`))
	}
	for _, seed := range attendSeeds {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/attend", bytes.NewReader(body))
		}

		// The reference: encoding/json for every body.
		jw := httptest.NewRecorder()
		var jreq AttendRequest
		jmeta, jok := decodeEnvelope(jw, post(), 1<<20, &jreq)
		var packedLen [3]int // base64 bytes per packed matrix
		jpacked := jreq.QP != nil
		if jok {
			for m, rows := range [][]string{jreq.QP, jreq.KP, jreq.VP} {
				for _, s := range rows {
					packedLen[m] += len(s)
				}
			}
			err := jreq.unpack()
			if err == nil {
				err = jreq.validate()
			}
			if err != nil {
				fail(jw, http.StatusBadRequest, err.Error())
				jok = false
			}
			jreq.QP, jreq.KP, jreq.VP = nil, nil, nil
		}

		w := httptest.NewRecorder()
		var req AttendRequest
		meta, packed, ok := decodeAttend(w, post(), 1<<20, &req)
		if ok != jok || w.Code != jw.Code || w.Body.String() != jw.Body.String() {
			t.Fatalf("decoder: ok=%v %d %q; encoding/json: ok=%v %d %q",
				ok, w.Code, w.Body.String(), jok, jw.Code, jw.Body.String())
		}
		if meta != jmeta {
			t.Fatalf("metadata %+v, encoding/json %+v", meta, jmeta)
		}
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("decode rejected with %d, want 400", w.Code)
			}
			return
		}
		if packed != jpacked {
			t.Fatalf("packed reply %v, encoding/json %v", packed, jpacked)
		}
		for m, pair := range [][2][][]float32{{req.Q, jreq.Q}, {req.K, jreq.K}, {req.V, jreq.V}} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("matrix %d: %d rows, encoding/json %d", m, len(got), len(want))
			}
			floats := 0
			for i := range got {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("matrix %d row %d: %d floats, encoding/json %d", m, i, len(got[i]), len(want[i]))
				}
				floats += len(got[i])
				for j, x := range got[i] {
					if math.Float32bits(x) != math.Float32bits(want[i][j]) {
						t.Fatalf("matrix %d [%d][%d]: bits %#x, encoding/json %#x",
							m, i, j, math.Float32bits(x), math.Float32bits(want[i][j]))
					}
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						t.Fatalf("accepted a non-finite element %g", x)
					}
				}
			}
			if packedLen[m] > 0 && 16*floats > 3*packedLen[m] {
				t.Fatalf("matrix %d: %d floats from %d base64 bytes", m, floats, packedLen[m])
			}
		}
		req.options() // head_dim inference must not panic on an accepted op
		req.Q, req.K, req.V, jreq.Q, jreq.K, jreq.V = nil, nil, nil, nil, nil, nil
		if !reflect.DeepEqual(req, jreq) {
			t.Fatalf("op fields %+v, encoding/json %+v", req, jreq)
		}
	})
}

// TestAttendScannerTakesPackedBodies pins which bodies the scanner
// decodes itself. Packed bodies as clients send them must not fall back
// to encoding/json, or the fast path is silently lost; the differential
// fuzz target checks only that both ways agree.
func TestAttendScannerTakesPackedBodies(t *testing.T) {
	const rows = `"qp":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]`
	for _, tc := range []struct {
		body string
		want bool
	}{
		{`{"op":{` + rows + `}}`, true},
		{`{"op":` + envelopeGolden[1].bare + `}`, true},
		{`{"client_id":"c","priority":"batch","deadline_ms":500,"op":{` + rows + `,"p":1,"t":-0.5,"backend":"","head_dim":2,"hash_bits":8,"seed":-1,"quantized":false}}`, true},
		{" {\n\"op\" :\t{ " + strings.ReplaceAll(rows, ",", " ,\r\n") + " } } ", true},
		{`{"op":` + envelopeGolden[0].bare + `}`, false}, // plain q/k/v
		{`{"op":{` + rows + `,"q":null}}`, false},
		{`{"op":{"QP":["AACAPwAAAAA="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`, false},
		{`{"op":{` + rows + `,"qp":["AACAPwAAAAA="]}}`, false},
		{`{"op":{` + rows + `,"t":null}}`, false},
		{`{"op":{"qp":["AACAPwAAAAA="],"kp":["\/\/\/\/PwAAAAA="],"vp":["AACAPwAAAAA="]}}`, false},
		{"{\"op\":{\"qp\":[\"AACAPwAA\r\n\r\nAAA=\"],\"kp\":[\"AACAPwAAAAA=\"],\"vp\":[\"AACAPwAAAAA=\"]}}", false},
		{`{"op":{"qp":["AADAfwAAgD8="],"kp":["AACAPwAAAAA="],"vp":["AACAPwAAAAA="]}}`, false}, // NaN
		{`{"op":{` + rows + `}}x`, false},
		{`{"deadline_ms":1e3,"op":{` + rows + `}}`, false},
	} {
		var req AttendRequest
		env := envelope[AttendRequest]{Op: &req}
		if got := scanEnvelope([]byte(tc.body), &env, scanAttendMember, attendRequired); got != tc.want {
			t.Errorf("scanEnvelope(%q) = %v, want %v", tc.body, got, tc.want)
		}
	}
}
