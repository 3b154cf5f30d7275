package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"elsa/internal/wire"
)

// appendSeeds are append bodies at the edge of what the body scanner
// takes: each must decode exactly as encoding/json decodes it, or be
// refused by the scanner and left to encoding/json.
var appendSeeds = []string{
	// Plain forms, which the scanner leaves to encoding/json.
	`{"op":{"key":[1,0],"value":[0,1]}}`,
	`{"op":{"keys":[[1,0],[0,1]],"values":[[0,1],[1,0]]}}`,
	`{"op":{"key":[1,0],"value":[0,1],"keys":[[1,0]],"values":[[0,1]]}}`,
	// Packed, one row and two.
	`{"op":{"kp":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	`{"client_id":"c","priority":"batch","op":{"kp":["AACAPwAAAAA=","AAAAAAAAgD8="],"vp":["AAAAAAAAgD8=","AACAPwAAAAA="]}}`,
	// Packed beside a plain field, set or null.
	`{"op":{"kp":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="],"keys":[[1,0]]}}`,
	`{"op":{"key":[1,0],"kp":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	`{"op":{"value":null,"kp":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	// Bad base64, a partial float, a NaN in the last row, a NaN ahead of
	// a bad row.
	`{"op":{"kp":["!!!!"],"vp":["AAAAAAAAgD8="]}}`,
	`{"op":{"kp":["AACA"],"vp":["AAAAAAAAgD8="]}}`,
	`{"op":{"kp":["AACAPwAAAAA=","AACAPwAAAAA="],"vp":["AAAAAAAAgD8=","AADAfwAAgD8="]}}`,
	`{"op":{"kp":["AADAfwAAgD8=","AAA="],"vp":["AAAAAAAAgD8="]}}`,
	// Row counts that differ, a side missing, empty and null matrices.
	`{"op":{"kp":["AACAPwAAAAA=","AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	`{"op":{"kp":["AACAPwAAAAA="]}}`,
	`{"op":{"kp":[],"vp":[]}}`,
	`{"op":{"kp":[""],"vp":[""]}}`,
	`{"op":{"kp":null,"vp":["AAAAAAAAgD8="]}}`,
	// A key case variant, a repeated key, escapes, a raw newline in a
	// row, trailing bytes.
	`{"op":{"KP":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	`{"op":{"kp":["AACAPwAAAAA="],"kp":["AAAAAAAAgD8="],"vp":["AAAAAAAAgD8="]}}`,
	`{"op":{"kp":["\/\/\/\/PwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	"{\"op\":{\"kp\":[\"AACAPwAA\nAAA=\"],\"vp\":[\"AAAAAAAAgD8=\"]}}",
	`{"op":{"kp":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}x`,
	// An unknown priority, which both paths answer after the op decodes.
	`{"priority":"urgent","op":{"kp":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`,
	// Whitespace between every token, the op's keys reordered.
	" {\n\"deadline_ms\" : 5 ,\"op\"\t:{ \"vp\" : [ \"AAAAAAAAgD8=\" ] , \"kp\" : [\"AACAPwAAAAA=\"\r] } } ",
	// Null, empty and missing op.
	`{"op":null}`,
	`{"op":{}}`,
	`{}`,
}

// FuzzSessionAppend drives arbitrary bodies through the handler's
// POST /v1/sessions/{id}/append decoder and, as the reference, through
// the encoding/json path alone (decodeEnvelope, then unpackAppend). The
// two must agree on the status and error text and on every row, bit for
// bit, and then on the batch the handler's shape check (appendRows)
// makes of them.
// A body the scanner takes must be one encoding/json takes too; every
// other body is answered 400, and none may panic. Packed rows may only
// allocate what the body pays for: four bytes of float per 5⅓ bytes of
// base64.
//
// The seeds run in plain `go test`; explore further with
//
//	go test -run '^$' -fuzz '^FuzzSessionAppend$' -fuzztime 30s ./internal/serve/
func FuzzSessionAppend(f *testing.F) {
	for _, seed := range appendSeeds {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/sessions/a/append", bytes.NewReader(body))
		}

		// The reference: encoding/json for every body.
		jw := httptest.NewRecorder()
		var jreq wire.SessionAppendRequest
		_, jok := decodeEnvelope(jw, post(), 1<<20, &jreq)
		var packedLen [2]int // base64 bytes of kp and of vp
		if jok {
			for m, rows := range [][]string{jreq.KP, jreq.VP} {
				for _, s := range rows {
					packedLen[m] += len(s)
				}
			}
			if err := unpackAppend(&jreq); err != nil {
				fail(jw, http.StatusBadRequest, err.Error())
				jok = false
			}
		}

		var sreq wire.SessionAppendRequest
		scanned := scanEnvelope(body, &wire.Envelope[*wire.SessionAppendRequest]{Op: &sreq}, scanAppendMember, appendRequired, nil)

		w := httptest.NewRecorder()
		var req wire.SessionAppendRequest
		ok := decodeAppend(w, post(), 1<<20, &req)
		if ok != jok || w.Code != jw.Code || w.Body.String() != jw.Body.String() {
			t.Fatalf("decoder: ok=%v %d %q; encoding/json: ok=%v %d %q",
				ok, w.Code, w.Body.String(), jok, jw.Code, jw.Body.String())
		}
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("decode rejected with %d, want 400", w.Code)
			}
			return
		}
		if req.KP != nil || req.VP != nil || jreq.KP != nil || jreq.VP != nil {
			t.Fatal("packed rows left undecoded")
		}
		for m, pair := range [][2][][]float32{
			{req.Keys, jreq.Keys}, {req.Values, jreq.Values},
			{{req.Key}, {jreq.Key}}, {{req.Value}, {jreq.Value}},
		} {
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
			if m < 2 && packedLen[m] > 0 && 16*floats > 3*packedLen[m] {
				t.Fatalf("matrix %d: %d floats from %d base64 bytes", m, floats, packedLen[m])
			}
		}
		if scanned && (len(sreq.Keys) != len(jreq.Keys) || len(sreq.Values) != len(jreq.Values)) {
			t.Fatalf("scanner took %d/%d rows, encoding/json %d/%d",
				len(sreq.Keys), len(sreq.Values), len(jreq.Keys), len(jreq.Values))
		}
		keys, values, err := appendRows(&req)
		jkeys, jvalues, jerr := appendRows(&jreq)
		if (err == nil) != (jerr == nil) || (err != nil && err.Error() != jerr.Error()) ||
			len(keys) != len(jkeys) || len(values) != len(jvalues) {
			t.Fatalf("rows: %d/%d %v; encoding/json %d/%d %v", len(keys), len(values), err, len(jkeys), len(jvalues), jerr)
		}
	})
}

// TestAppendScannerTakesPackedBodies pins which append bodies the
// scanner decodes itself. Packed bodies as serve/client sends them must
// not fall back to encoding/json, or the fast path is silently lost; the
// differential fuzz target checks only that both ways agree.
func TestAppendScannerTakesPackedBodies(t *testing.T) {
	const rows = `"kp":["AACAPwAAAAA=","AAAAAAAAgD8="],"vp":["AAAAAAAAgD8=","AACAPwAAAAA="]`
	for _, tc := range []struct {
		body string
		want bool
	}{
		{`{"op":{` + rows + `}}`, true},
		{`{"client_id":"c","priority":"batch","deadline_ms":500,"op":{` + rows + `}}`, true},
		{`{"op":{"vp":[],"kp":[]}}`, true},
		{" {\n\"op\" :\t{ \"kp\" : [ \"AACAPwAAAAA=\" ] ,\r\n\"vp\":[\"AAAAAAAAgD8=\"] } } ", true},
		{`{"op":{"keys":[[1,0]],"values":[[0,1]]}}`, false}, // plain
		{`{"op":{"key":[1,0],"value":[0,1]}}`, false},
		{`{"op":{` + rows + `,"keys":null}}`, false},
		{`{"op":{"kp":["AACAPwAAAAA="]}}`, false},
		{`{"op":{"KP":["AACAPwAAAAA="],"vp":["AAAAAAAAgD8="]}}`, false},
		{`{"op":{` + rows + `,"kp":["AACAPwAAAAA="]}}`, false},
		{`{"op":{"kp":["AACAPwAAAAA="],"vp":["AADAfwAAgD8="]}}`, false}, // NaN
		{`{"op":{"kp":["AACA"],"vp":["AAAAAAAAgD8="]}}`, false},
		{`{"op":{"kp":["\/\/\/\/PwAAAAA="],"vp":["AAAAAAAAgD8="]}}`, false},
		{`{"op":{` + rows + `}}x`, false},
	} {
		var req wire.SessionAppendRequest
		env := wire.Envelope[*wire.SessionAppendRequest]{Op: &req}
		if got := scanEnvelope([]byte(tc.body), &env, scanAppendMember, appendRequired, nil); got != tc.want {
			t.Errorf("scanEnvelope(%q) = %v, want %v", tc.body, got, tc.want)
		}
	}
}
