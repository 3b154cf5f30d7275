package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"elsa"
	"elsa/internal/wire"
	"elsa/serve/client"
)

// requestMeta is the envelope's admission metadata, resolved.
type requestMeta struct {
	clientID string
	class    Class
	deadline time.Duration // remaining budget; 0 = none
}

// maxBodyBytes bounds every request body (32 MiB).
const maxBodyBytes = 32 << 20

// bareBodyHint is the 400 body a payload sent without the v1 envelope
// earns: it names the fix so old clients can self-serve the migration.
const bareBodyHint = `bare payload rejected: wrap the request body in the v1 envelope {"op": <payload>} (optionally with client_id / priority / deadline_ms)`

// decodeEnvelope decodes a size-bounded v1 envelope body in one pass,
// its op into payload, and resolves the admission metadata (falling back
// to the X-Elsa-Client / X-Elsa-Priority headers). It answers 400 itself
// on failure; a body whose op is missing or null earns bareBodyHint.
func decodeEnvelope[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, payload *T) (requestMeta, bool) {
	body, err := readBody(w, r, maxBytes)
	if err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return requestMeta{}, false
	}
	// encoding/json copies every string and raw value it keeps, so
	// nothing aliases the body once it returns.
	defer wire.BytePool.Put(body)
	return decodeEnvelopeBody(w, r, body, payload)
}

// readBody reads a request body of at most maxBytes. A body whose
// Content-Length is known and within the limit is read with one
// exact-size read instead of a ReadAll that grows its buffer by
// doubling; net/http stops the body at its declared length and fails one
// cut short with io.ErrUnexpectedEOF, as ReadAll reports it. Any other
// body (chunked, or declared over the limit) goes through
// http.MaxBytesReader, whose error names the limit. The exact-size
// buffer comes from wire.BytePool; the caller releases the body there
// once nothing aliases it.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	if r.ContentLength < 0 || r.ContentLength > maxBytes {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	}
	body := wire.BytePool.Get(int(r.ContentLength))
	if _, err := io.ReadFull(r.Body, body); err != nil {
		wire.BytePool.Put(body)
		return nil, err
	}
	return body, nil
}

// decodeEnvelopeBody is decodeEnvelope on a body already read.
func decodeEnvelopeBody[T any](w http.ResponseWriter, r *http.Request, body []byte, payload *T) (requestMeta, bool) {
	var env wire.Envelope[*T]
	if err := json.Unmarshal(body, &env); err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return requestMeta{}, false
	}
	if env.Op == nil {
		fail(w, http.StatusBadRequest, bareBodyHint)
		return requestMeta{}, false
	}
	*payload = *env.Op
	return envelopeMeta(w, r, &env)
}

// envelopeMeta resolves the envelope's admission metadata, falling back
// to the X-Elsa-Client / X-Elsa-Priority headers. It answers 400 itself
// on an unknown priority.
func envelopeMeta[T any](w http.ResponseWriter, r *http.Request, env *wire.Envelope[T]) (requestMeta, bool) {
	meta := requestMeta{clientID: env.ClientID}
	if meta.clientID == "" {
		meta.clientID = r.Header.Get("X-Elsa-Client")
	}
	priority := env.Priority
	if priority == "" {
		priority = r.Header.Get("X-Elsa-Priority")
	}
	var err error
	meta.class, err = parseClass(priority)
	if err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return requestMeta{}, false
	}
	if env.DeadlineMS > 0 {
		meta.deadline = time.Duration(env.DeadlineMS) * time.Millisecond
	}
	return meta, true
}

// unpackAttend decodes the packed matrices into Q/K/V, rejecting a
// matrix sent both ways and any non-finite element. JSON numbers cannot
// spell NaN or Inf but packed bits can; caught here, such an op answers
// 400 on its own instead of failing every op of the micro-batch it would
// join.
func unpackAttend(r *wire.AttendRequest) error {
	for _, part := range []struct {
		name   string
		rows   *[][]float32
		packed []string
	}{{"q", &r.Q, r.QP}, {"k", &r.K, r.KP}, {"v", &r.V, r.VP}} {
		if part.packed == nil {
			continue
		}
		if *part.rows != nil {
			return fmt.Errorf("%s and %sp are mutually exclusive", part.name, part.name)
		}
		rows, err := unpackMatrix(part.name+"p", part.packed)
		if err != nil {
			return err
		}
		*part.rows = rows
	}
	return nil
}

// unpackAppend decodes kp and vp into Keys and Values, rejecting a body
// that mixes them with any plain field and any non-finite element, as
// unpackAttend does.
func unpackAppend(r *wire.SessionAppendRequest) error {
	if r.KP == nil && r.VP == nil {
		return nil
	}
	if r.Key != nil || r.Value != nil || r.Keys != nil || r.Values != nil {
		return errors.New("kp/vp and key/value/keys/values are mutually exclusive")
	}
	var err error
	if r.Keys, err = unpackMatrix("kp", r.KP); err != nil {
		return err
	}
	if r.Values, err = unpackMatrix("vp", r.VP); err != nil {
		return err
	}
	r.KP, r.VP = nil, nil
	return nil
}

// appendRows returns the batch an append request carries: key/value as
// one row, or keys/values. It refuses a request that sets both plain
// forms, carries no row, or pairs a different number of keys and values.
func appendRows(r *wire.SessionAppendRequest) (keys, values [][]float32, err error) {
	keys, values = r.Keys, r.Values
	if r.Key != nil || r.Value != nil {
		if keys != nil || values != nil {
			return nil, nil, errors.New("use key/value or keys/values, not both")
		}
		keys, values = [][]float32{r.Key}, [][]float32{r.Value}
	}
	if len(keys) == 0 {
		return nil, nil, errors.New("append requires at least one key/value pair")
	}
	if len(keys) != len(values) {
		return nil, nil, fmt.Errorf("%d keys but %d values", len(keys), len(values))
	}
	return keys, values, nil
}

// unpackMatrix decodes the packed rows of the matrix named name,
// refusing a bad row and then any non-finite element.
func unpackMatrix(name string, packed []string) ([][]float32, error) {
	rows, badRow, badCol, err := wire.DecodeRows(packed)
	if err != nil {
		return nil, fmt.Errorf("%s %w", name, err)
	}
	if badRow >= 0 {
		return nil, fmt.Errorf("%s row %d element %d is not finite (%g)",
			name, badRow, badCol, rows[badRow][badCol])
	}
	return rows, nil
}

// unpackStep checks a step wave's entries and decodes each packed query
// into Q: a wave needs at least one entry, and each entry exactly one
// non-empty query, plain or packed.
func unpackStep(r *wire.SessionStepRequest) error {
	if len(r.Queries) == 0 {
		return errors.New("step requires at least one query")
	}
	for i := range r.Queries {
		q := &r.Queries[i]
		if q.QPacked != "" {
			if len(q.Q) != 0 {
				return fmt.Errorf("queries[%d] sets both q and qp", i)
			}
			vec, err := client.UnpackVec(q.QPacked)
			if err != nil {
				return fmt.Errorf("queries[%d].qp: %v", i, err)
			}
			q.Q = vec
		}
		if len(q.Q) == 0 {
			return fmt.Errorf("queries[%d].q must be non-empty", i)
		}
	}
	return nil
}

// validateAttend performs the shape checks the scheduler relies on,
// returning a client-addressable error.
func validateAttend(r *wire.AttendRequest) error {
	for _, part := range []struct {
		name string
		rows [][]float32
	}{{"q", r.Q}, {"k", r.K}, {"v", r.V}} {
		if len(part.rows) == 0 {
			return fmt.Errorf("%s must have at least one row", part.name)
		}
		cols := len(part.rows[0])
		if cols == 0 {
			return fmt.Errorf("%s row 0 is empty", part.name)
		}
		for i, row := range part.rows {
			if len(row) != cols {
				return fmt.Errorf("%s is ragged: row %d has %d columns, row 0 has %d",
					part.name, i, len(row), cols)
			}
		}
	}
	if len(r.K) != len(r.V) {
		return fmt.Errorf("%d keys but %d values", len(r.K), len(r.V))
	}
	return checkOperatingPoint(r.P, r.T, r.Backend)
}

// checkOperatingPoint validates an op's or session's wire operating
// point: p must be >= 0, the backend selector known, an exact backend
// only on an exact op (p = 0), and never beside an explicit t — an exact
// backend never consults a threshold, so naming both is contradictory
// rather than silently dropping one. Every violation answers 400.
func checkOperatingPoint(p float64, t *float64, backend string) error {
	switch {
	case p < 0:
		return fmt.Errorf("p must be >= 0, got %g", p)
	case !elsa.ValidBackend(backend):
		return fmt.Errorf("unknown backend %q (want %q or %q)",
			backend, elsa.BackendScores, elsa.BackendLinearScan)
	case backend != elsa.BackendAuto && p != 0:
		return fmt.Errorf("backend %q requires an exact operating point (p = 0)", backend)
	case backend != elsa.BackendAuto && t != nil:
		return errors.New("backend and t are mutually exclusive")
	}
	return nil
}

// attendEngineOptions maps an attend request's engine fields onto
// elsa.Options.
func attendEngineOptions(r *wire.AttendRequest) elsa.Options {
	return normalizeOptions(elsa.Options{
		HeadDim:   r.HeadDim,
		HashBits:  r.HashBits,
		Seed:      r.Seed,
		Quantized: r.Quantized,
	}, len(r.Q[0]))
}

// attendOverrides maps an attend request's operating-point fields onto
// the library's per-op override struct: an explicit t pins the
// threshold, otherwise p is left for the server's registry to resolve.
func attendOverrides(r *wire.AttendRequest) elsa.Overrides {
	ov := elsa.Overrides{P: r.P, Backend: r.Backend}
	if r.T != nil {
		ov.Thr = &elsa.Threshold{P: r.P, T: *r.T}
	}
	return ov
}

// queryOverrides maps a decode query's operating-point fields onto the
// per-query override struct: its own threshold and backend, when set.
func queryOverrides(t *float64, backend string) elsa.Overrides {
	ov := elsa.Overrides{Backend: backend}
	if t != nil {
		ov.Thr = &elsa.Threshold{T: *t}
	}
	return ov
}
