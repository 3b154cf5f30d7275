package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"elsa/internal/wire"
)

// The golden bodies below are pinned literals, not round-tripped through
// json.Marshal: the op payload wire format is a compatibility contract
// with deployed clients, and these tests exist to break loudly if a field
// rename or type change on any POST payload would strand them. Every
// payload travels inside the v1 envelope {"op": <payload>}; a bare body
// is rejected with a 400 that tells the client how to wrap it.

// decodeAny calls decodeEnvelope, whose payload type is a type
// parameter, for a payload held as any: the golden table stores its
// payload constructors as func() any.
func decodeAny(t *testing.T, w http.ResponseWriter, r *http.Request, payload any) (requestMeta, bool) {
	t.Helper()
	switch p := payload.(type) {
	case *wire.AttendRequest:
		return decodeEnvelope(w, r, 1<<20, p)
	case *wire.SessionCreateRequest:
		return decodeEnvelope(w, r, 1<<20, p)
	case *wire.SessionAppendRequest:
		return decodeEnvelope(w, r, 1<<20, p)
	case *wire.SessionQueryRequest:
		return decodeEnvelope(w, r, 1<<20, p)
	}
	t.Fatalf("decodeAny: no case for payload type %T", payload)
	return requestMeta{}, false
}

// decodeVia runs one body through decodeEnvelope exactly as the handlers
// do and returns the resolved meta. payload must be a pointer.
func decodeVia(t *testing.T, body string, headers map[string]string, payload any) requestMeta {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/test", strings.NewReader(body))
	for k, v := range headers {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	meta, ok := decodeAny(t, w, r, payload)
	if !ok {
		t.Fatalf("decodeEnvelope rejected %q: %s", body, w.Body.String())
	}
	return meta
}

// rejectVia runs one body through decodeEnvelope expecting rejection and
// returns the error body written.
func rejectVia(t *testing.T, body string, payload any) string {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/test", strings.NewReader(body))
	w := httptest.NewRecorder()
	if _, ok := decodeAny(t, w, r, payload); ok {
		t.Fatalf("decodeEnvelope accepted %q, want rejection", body)
	}
	if w.Code != 400 {
		t.Fatalf("rejection status %d, want 400", w.Code)
	}
	return w.Body.String()
}

var envelopeGolden = []struct {
	name    string
	bare    string // pinned golden payload body
	payload func() any
}{
	{
		name:    "attend",
		bare:    `{"q":[[1,0]],"k":[[0.5,0.5],[1,0]],"v":[[1,2],[3,4]],"p":0.4,"head_dim":2,"hash_bits":8,"seed":9,"quantized":true}`,
		payload: func() any { return &wire.AttendRequest{} },
	},
	{
		// The "attend" row's op with Q/K/V packed (client.PackVec rows).
		name:    "attend packed",
		bare:    `{"qp":["AACAPwAAAAA="],"kp":["AAAAPwAAAD8=","AACAPwAAAAA="],"vp":["AACAPwAAAEA=","AABAQAAAgEA="],"p":0.4,"head_dim":2,"hash_bits":8,"seed":9,"quantized":true}`,
		payload: func() any { return &wire.AttendRequest{} },
	},
	{
		name:    "attend explicit threshold",
		bare:    `{"q":[[1,0]],"k":[[1,0]],"v":[[1,2]],"p":0.3,"t":-0.25}`,
		payload: func() any { return &wire.AttendRequest{} },
	},
	{
		name:    "session create",
		bare:    `{"head_dim":16,"hash_bits":12,"seed":3,"quantized":true,"p":0.5,"capacity":128}`,
		payload: func() any { return &wire.SessionCreateRequest{} },
	},
	{
		name:    "session append single",
		bare:    `{"key":[1,0,0.5],"value":[2,1,0]}`,
		payload: func() any { return &wire.SessionAppendRequest{} },
	},
	{
		name:    "session append batch",
		bare:    `{"keys":[[1,0],[0,1]],"values":[[2,1],[1,2]]}`,
		payload: func() any { return &wire.SessionAppendRequest{} },
	},
	{
		name:    "session query",
		bare:    `{"q":[0.25,0.75],"t":-0.125}`,
		payload: func() any { return &wire.SessionQueryRequest{} },
	},
}

// TestEnvelopeBareCompat pins, for every POST endpoint payload, that the
// golden body wrapped as an envelope's op decodes deeply equal to
// json.Unmarshal of the golden literal itself — the envelope adds
// metadata and nothing else — and that the envelope's admission fields
// resolve.
func TestEnvelopeBareCompat(t *testing.T) {
	for _, tc := range envelopeGolden {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.payload()
			if err := json.Unmarshal([]byte(tc.bare), want); err != nil {
				t.Fatalf("golden body does not parse: %v", err)
			}

			wrapped := tc.payload()
			envBody := fmt.Sprintf(`{"client_id":"tenant-a","priority":"batch","deadline_ms":250,"op":%s}`, tc.bare)
			meta := decodeVia(t, envBody, nil, wrapped)
			if !reflect.DeepEqual(want, wrapped) {
				t.Errorf("enveloped op decoded differently from the golden body:\ngolden:  %+v\nwrapped: %+v", want, wrapped)
			}
			if meta.clientID != "tenant-a" || meta.class != ClassBatch || meta.deadline != 250*time.Millisecond {
				t.Errorf("envelope meta not resolved: %+v", meta)
			}
		})
	}
}

// TestEnvelopeBareSunset pins the rejection half of the contract: every
// golden body sent bare is rejected with a 400 carrying the wrap hint,
// while the same payload in a minimal v1 envelope decodes under the
// default admission metadata (anonymous, interactive, no deadline).
func TestEnvelopeBareSunset(t *testing.T) {
	for _, tc := range envelopeGolden {
		t.Run(tc.name, func(t *testing.T) {
			errBody := rejectVia(t, tc.bare, tc.payload())
			if !strings.Contains(errBody, "wrap the request body") || !strings.Contains(errBody, "envelope") {
				t.Errorf("bare rejection must carry the wrap hint, got %s", errBody)
			}

			want := tc.payload()
			if err := json.Unmarshal([]byte(tc.bare), want); err != nil {
				t.Fatalf("golden body does not parse: %v", err)
			}
			wrapped := tc.payload()
			meta := decodeVia(t, fmt.Sprintf(`{"op":%s}`, tc.bare), nil, wrapped)
			if !reflect.DeepEqual(want, wrapped) {
				t.Errorf("enveloped decode drifted from the golden body:\ngolden:  %+v\nwrapped: %+v", want, wrapped)
			}
			if meta.clientID != "" || meta.class != ClassInteractive || meta.deadline != 0 {
				t.Errorf("minimal envelope must resolve to defaults, got %+v", meta)
			}
		})
	}

	// Malformed JSON stays a plain parse error — the wrap hint is only for
	// well-formed bodies missing the envelope.
	errBody := rejectVia(t, `{"q":`, &wire.SessionQueryRequest{})
	if !strings.Contains(errBody, "invalid JSON body") {
		t.Errorf("malformed body must be a parse error, got %s", errBody)
	}
}

// TestEnvelopePackedAttendGolden pins that the packed golden attend op
// unpacks to exactly the plain golden op: same Q/K/V bits, same engine
// and operating-point fields.
func TestEnvelopePackedAttendGolden(t *testing.T) {
	golden := func(name string) string {
		for _, tc := range envelopeGolden {
			if tc.name == name {
				return tc.bare
			}
		}
		t.Fatalf("no golden row %q", name)
		return ""
	}
	var plain, packed wire.AttendRequest
	decodeVia(t, `{"op":`+golden("attend")+`}`, nil, &plain)
	decodeVia(t, `{"op":`+golden("attend packed")+`}`, nil, &packed)
	if err := unpackAttend(&packed); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	packed.QP, packed.KP, packed.VP = nil, nil, nil
	if !reflect.DeepEqual(plain, packed) {
		t.Errorf("packed golden op unpacked differently from the plain one:\nplain:  %+v\npacked: %+v", plain, packed)
	}
}

// TestEnvelopeNullOp pins the answer to an explicit null op: the
// bare-body hint, exactly as for a missing op.
func TestEnvelopeNullOp(t *testing.T) {
	for _, body := range []string{`{"op": null}`, `{"client_id":"c","op":null}`, `{"client_id":"c"}`} {
		if errBody := rejectVia(t, body, &wire.AttendRequest{}); !strings.Contains(errBody, "wrap the request body in the v1 envelope") {
			t.Errorf("%s: want the bare-body hint, got %s", body, errBody)
		}
	}
}

// TestEnvelopeHeaderFallback pins the precedence rules: envelope fields
// win, headers fill the gaps for clients that cannot change their body.
func TestEnvelopeHeaderFallback(t *testing.T) {
	headers := map[string]string{"X-Elsa-Client": "hdr-client", "X-Elsa-Priority": "background"}

	var req wire.SessionQueryRequest
	meta := decodeVia(t, `{"op":{"q":[1,0]}}`, headers, &req)
	if meta.clientID != "hdr-client" || meta.class != ClassBackground {
		t.Errorf("envelope without metadata must take headers: %+v", meta)
	}

	meta = decodeVia(t, `{"client_id":"body-client","priority":"batch","op":{"q":[1,0]}}`, headers, &req)
	if meta.clientID != "body-client" || meta.class != ClassBatch {
		t.Errorf("envelope fields must win over headers: %+v", meta)
	}

	// Mixed: envelope names the client, header supplies the priority.
	meta = decodeVia(t, `{"client_id":"body-client","op":{"q":[1,0]}}`, headers, &req)
	if meta.clientID != "body-client" || meta.class != ClassBackground {
		t.Errorf("headers must fill unset envelope fields: %+v", meta)
	}
}

// TestEnvelopeAttendByteIdentical runs the same exact (p=0) op through
// /v1/attend in a minimal envelope and in one carrying admission
// metadata: the response bodies must match byte for byte, the end-to-end
// form of the decode guarantee. The bare body must come back 400 with the
// wrap hint.
func TestEnvelopeAttendByteIdentical(t *testing.T) {
	bare := []byte(`{"q":[[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]],` +
		`"k":[[0.5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.5],[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],` +
		`"v":[[1,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[3,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],"seed":7}`)
	wrap := func(prefix string) []byte {
		env := append([]byte(prefix), bare...)
		return append(env, '}')
	}

	doPost := func(t *testing.T, ts *httptest.Server, body []byte) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/attend", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	t.Run("sunset default", func(t *testing.T) {
		srv := New(Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		code, body := doPost(t, ts, bare)
		if code != 400 {
			t.Fatalf("bare body: status %d (%s), want 400", code, body)
		}
		if !bytes.Contains(body, []byte("envelope")) {
			t.Errorf("400 body must carry the wrap hint, got %s", body)
		}
		code, minResp := doPost(t, ts, wrap(`{"op":`))
		if code != 200 {
			t.Fatalf("minimal envelope: status %d (%s), want 200", code, minResp)
		}
		code, metaResp := doPost(t, ts, wrap(`{"client_id":"golden","priority":"interactive","op":`))
		if code != 200 {
			t.Fatalf("envelope with metadata: status %d (%s), want 200", code, metaResp)
		}
		if !bytes.Equal(minResp, metaResp) {
			t.Errorf("envelope metadata changed the response:\nminimal:  %s\nmetadata: %s", minResp, metaResp)
		}
		var parsed wire.AttendResponse
		if err := json.Unmarshal(minResp, &parsed); err != nil {
			t.Fatalf("response is not an wire.AttendResponse: %v", err)
		}
		if len(parsed.Context) != 1 {
			t.Errorf("want 1 context row, got %d", len(parsed.Context))
		}
	})
}

// TestEnvelopeBodyRead pins how a body is read before it is decoded,
// over a real connection so that each framing arrives as net/http
// delivers it: a declared length over the limit, a body cut short of its
// declared length, and chunked bodies (length unknown) under and over
// the limit. Each answers the same status and error text whichever way
// the server reads it.
func TestEnvelopeBodyRead(t *testing.T) {
	const limit = 64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.SessionQueryRequest
		if _, ok := decodeEnvelope(w, r, limit, &req); ok {
			writeJSON(w, http.StatusOK, req)
		}
	}))
	defer ts.Close()

	small := `{"op":{"q":[1,0]}}`
	big := `{"op":{"q":[` + strings.Repeat("0,", limit) + `0]}}`
	chunked := func(body string) string {
		return fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	}
	for _, tc := range []struct {
		name     string
		request  string // headers after the request line, then the body
		wantCode int
		wantBody string
	}{
		{"declared length under the limit", fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(small), small),
			200, `{"q":[1,0]}`},
		{"declared length over the limit", fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(big), big),
			400, `{"error":"invalid JSON body: http: request body too large"}`},
		{"body shorter than its declared length", fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(small)+10, small),
			400, `{"error":"invalid JSON body: unexpected EOF"}`},
		{"chunked under the limit", chunked(small),
			200, `{"q":[1,0]}`},
		{"chunked over the limit", chunked(big),
			400, `{"error":"invalid JSON body: http: request body too large"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, "POST /v1/test HTTP/1.1\r\nHost: x\r\n"+tc.request); err != nil {
				t.Fatal(err)
			}
			// End the stream so a body cut short reaches the server as such.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantCode || strings.TrimSpace(string(body)) != tc.wantBody {
				t.Errorf("got %d %s, want %d %s", resp.StatusCode, bytes.TrimSpace(body), tc.wantCode, tc.wantBody)
			}
		})
	}
}
