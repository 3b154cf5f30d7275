package serve

import (
	"bytes"
	"encoding/base64"
	"net/http"
	"strconv"
	"unicode/utf8"

	"elsa/internal/wire"
)

// decodeAttend reads and decodes a POST /v1/attend body up to a validated
// op, answering 400 itself on failure, and reports whether the queries
// arrived packed (qp), which decides the reply form: packed in, packed
// out. On failure meta carries the class resolved so far
// (ClassInteractive when the envelope itself failed). Packed matrices
// the body scanner takes decode into pooled buffers recorded in bufs,
// whatever the outcome; the caller releases them once nothing reads the
// rows.
func decodeAttend(w http.ResponseWriter, r *http.Request, maxBytes int64, req *wire.AttendRequest, bufs *rowBuffers) (meta requestMeta, packed, ok bool) {
	meta, scanned, ok := decodeOp(w, r, maxBytes, req, scanAttendMember, attendRequired, unpackAttend, bufs)
	if !ok {
		return meta, false, false
	}
	packed = scanned || req.QP != nil
	req.QP, req.KP, req.VP = nil, nil, nil
	if err := validateAttend(req); err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return meta, packed, false
	}
	return meta, packed, true
}

// decodeAppend reads and decodes a POST /v1/sessions/{id}/append body
// into req's plain rows, answering 400 itself on failure.
func decodeAppend(w http.ResponseWriter, r *http.Request, maxBytes int64, req *wire.SessionAppendRequest) bool {
	_, _, ok := decodeOp(w, r, maxBytes, req, scanAppendMember, appendRequired, unpackAppend, nil)
	return ok
}

// opMember scans the value of one member, named key, of an op object
// into req, recording the key in seen; it returns false for a key it
// does not know, a repeated key or a value it does not fully recognise.
type opMember[T any] func(s *bodyScanner, req *T, key []byte, seen *keySet) bool

// decodeOp reads a v1 envelope body and decodes its op into req,
// answering 400 itself on failure, and reports whether the body scanner
// took it. A body the scanner fully recognises (through member, with
// every key in required present) is decoded in one pass with no
// intermediate strings. Any other body, and every malformed one, goes
// through decodeEnvelopeBody's encoding/json path, then unpack; so every
// status and error text is the JSON path's, whichever way a body went.
// On failure meta carries the class resolved so far (ClassInteractive
// when the envelope itself failed). With bufs set, the scanner decodes
// packed rows into pooled backings and records them there; with bufs
// nil it makes them.
func decodeOp[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, req *T,
	member opMember[T], required keySet, unpack func(*T) error, bufs *rowBuffers) (meta requestMeta, scanned, ok bool) {
	body, err := readBody(w, r, maxBytes)
	if err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return requestMeta{}, false, false
	}
	// Both paths copy every string they keep, and rows decode into their
	// own backing, so nothing aliases the body once they return.
	defer wire.BytePool.Put(body)
	env := wire.Envelope[*T]{Op: req}
	if scanEnvelope(body, &env, member, required, bufs) {
		meta, ok = envelopeMeta(w, r, &env)
		return meta, true, ok
	}
	if meta, ok = decodeEnvelopeBody(w, r, body, req); !ok {
		return requestMeta{}, false, false
	}
	if err := unpack(req); err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return meta, false, false
	}
	return meta, false, true
}

// bodyScanner walks one request body. Every method returns false for
// input it does not fully recognise; the caller then hands the whole
// body to encoding/json. bufs, when set, takes rows' float backings
// from the pool and records them.
type bodyScanner struct {
	b    []byte
	i    int
	bufs *rowBuffers
}

// rowBuffers records the pooled float backings one attend op's packed
// matrices decoded into: one for each of qp, kp and vp, the only members
// the scanner decodes rows for, each at most once. Its owner releases
// them once no lane can read the rows. The row headers over them are
// made per op: at 24 B a row they stay under the pools' 32 KiB floor
// for any K/V the workloads send.
type rowBuffers struct {
	floats [3][]float32
	n      int
}

// take gets an empty backing of capacity floats from the pool and
// records it.
func (b *rowBuffers) take(floats int) []float32 {
	f := wire.FloatPool.Get(floats)[:0]
	b.floats[b.n] = f
	b.n++
	return f
}

// release returns every recorded backing to the pool and forgets them.
func (b *rowBuffers) release() {
	for i := range b.n {
		wire.FloatPool.Put(b.floats[i])
	}
	b.forget()
}

// forget drops the record without releasing anything: the buffers go to
// the GC once their last reader lets go.
func (b *rowBuffers) forget() { *b = rowBuffers{} }

// scanEnvelope decodes body into env (whose Op must be set) when body is
// a v1 envelope it fully recognises: exact lower-case keys, each at most
// once, in any order, with any JSON whitespace; strings free of escapes
// and control bytes; numbers that match the JSON grammar and parse in
// range for their field; and an op whose members member recognises,
// carrying every key in required. Each packed matrix lands in one
// float32 backing straight from the base64, with the same finiteness
// check as unpackAttend. It reports false for anything else (plain rows,
// null, "QP", a repeated key, a \/ escape, a malformed body, a bad or
// non-finite row), having possibly written to env: the caller then
// decodes the body again through encoding/json.
func scanEnvelope[T any](body []byte, env *wire.Envelope[*T], member opMember[T], required keySet, bufs *rowBuffers) bool {
	s := bodyScanner{b: body, bufs: bufs}
	var seen keySet
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "client_id":
			return seen.add(0) && s.str(&env.ClientID)
		case "priority":
			return seen.add(1) && s.str(&env.Priority)
		case "deadline_ms":
			return seen.add(2) && s.int64(&env.DeadlineMS, 64)
		case "op":
			var op keySet
			return seen.add(3) &&
				s.object(func(key []byte) bool { return member(&s, env.Op, key, &op) }) &&
				op&required == required
		}
		return false
	})
	s.ws()
	return ok && seen.has(3) && s.i == len(s.b)
}

// attendRequired is the attend op's keys the scanner requires: qp, kp
// and vp.
const attendRequired keySet = 1<<0 | 1<<1 | 1<<2

// scanAttendMember is the attend op's member switch.
func scanAttendMember(s *bodyScanner, req *wire.AttendRequest, key []byte, seen *keySet) bool {
	switch string(key) {
	case "qp":
		return seen.add(0) && s.rows(&req.Q)
	case "kp":
		return seen.add(1) && s.rows(&req.K)
	case "vp":
		return seen.add(2) && s.rows(&req.V)
	case "p":
		return seen.add(3) && s.float(&req.P)
	case "t":
		if !seen.add(4) {
			return false
		}
		req.T = new(float64)
		return s.float(req.T)
	case "backend":
		return seen.add(5) && s.str(&req.Backend)
	case "head_dim":
		return seen.add(6) && s.int(&req.HeadDim)
	case "hash_bits":
		return seen.add(7) && s.int(&req.HashBits)
	case "seed":
		return seen.add(8) && s.int64(&req.Seed, 64)
	case "quantized":
		return seen.add(9) && s.bool(&req.Quantized)
	}
	return false
}

// appendRequired is the append op's keys the scanner requires: kp and
// vp, its only members.
const appendRequired keySet = 1<<0 | 1<<1

// scanAppendMember is the append op's member switch: packed keys and
// values decode straight into the plain rows.
func scanAppendMember(s *bodyScanner, req *wire.SessionAppendRequest, key []byte, seen *keySet) bool {
	switch string(key) {
	case "kp":
		return seen.add(0) && s.rows(&req.Keys)
	case "vp":
		return seen.add(1) && s.rows(&req.Values)
	}
	return false
}

// keySet records which of an object's keys, numbered by the scanner,
// have been seen; encoding/json lets a repeated key override, the
// scanner refuses it.
type keySet uint16

// add marks key k seen and reports whether it was new.
func (ks *keySet) add(k int) bool {
	if ks.has(k) {
		return false
	}
	*ks |= 1 << k
	return true
}

func (ks keySet) has(k int) bool { return ks&(1<<k) != 0 }

// ws skips JSON whitespace.
func (s *bodyScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *bodyScanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans a JSON object, calling member with each key once the
// scanner stands before its value; member scans the value.
func (s *bodyScanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		s.ws()
		key, ok := s.raw()
		if !ok || !s.next(':') {
			return false
		}
		s.ws()
		if !member(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// raw scans a string of printable characters and valid UTF-8 with no
// escapes, returning its contents; JSON would read it verbatim.
func (s *bodyScanner) raw() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i+1:], '"')
	if end < 0 {
		return nil, false
	}
	v := s.b[s.i+1 : s.i+1+end]
	for _, c := range v {
		if c < 0x20 || c == '\\' {
			return nil, false
		}
	}
	if !utf8.Valid(v) {
		return nil, false
	}
	s.i += end + 2
	return v, true
}

// str scans a string value.
func (s *bodyScanner) str(dst *string) bool {
	v, ok := s.raw()
	*dst = string(v)
	return ok
}

// bool scans true or false.
func (s *bodyScanner) bool(dst *bool) bool {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		*dst = true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		*dst = false
	default:
		return false
	}
	return true
}

// number scans a number that matches the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning its text
// and whether it is an integer (no fraction or exponent).
func (s *bodyScanner) number() (text []byte, integer, ok bool) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		integer = false
		if s.digits() == 0 {
			return nil, false, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		integer = false
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false, false
		}
	}
	return s.b[start:s.i], integer, true
}

// digits consumes a run of decimal digits and returns its length.
func (s *bodyScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// float scans a number into a float64, refusing one out of range as
// encoding/json does.
func (s *bodyScanner) float(dst *float64) bool {
	text, _, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	*dst = v
	return err == nil
}

// int64 scans an integer that fits in bits bits; encoding/json refuses a
// fraction, an exponent or an overflow in an integer field.
func (s *bodyScanner) int64(dst *int64, bits int) bool {
	text, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(text), 10, bits)
	*dst = v
	return err == nil
}

// int is int64 for an int field.
func (s *bodyScanner) int(dst *int) bool {
	var v int64
	ok := s.int64(&v, strconv.IntSize)
	*dst = int(v)
	return ok
}

// rows scans an array of packed rows (client.PackVec strings) into one
// float32 backing, sized before any row is decoded so that the
// allocation count does not grow with the rows. Each row keeps the
// capacity to the end of the backing, so equal-length rows are
// consecutive windows of one slice, which the engine reads in place. A
// row holding anything but base64 (an escape, a control byte, a raw CR
// or LF), a row of partial floats and a non-finite element are all
// refused.
func (s *bodyScanner) rows(dst *[][]float32) bool {
	if !s.next('[') {
		return false
	}
	// First pass: find each row's extent to count rows and floats.
	start := s.i
	n, floats := 0, 0
	if !s.next(']') {
		for {
			s.ws()
			if s.i >= len(s.b) || s.b[s.i] != '"' {
				return false
			}
			end := bytes.IndexByte(s.b[s.i+1:], '"')
			if end < 0 {
				return false
			}
			n++
			floats += wire.Floats(end)
			s.i += end + 2
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	// Second pass: the structure is known good, so each row is the text
	// between the next two quotes.
	var backing []float32
	if s.bufs != nil {
		backing = s.bufs.take(floats)
	} else {
		backing = make([]float32, 0, floats)
	}
	rows := make([][]float32, n)
	at := start
	for i := range rows {
		at += bytes.IndexByte(s.b[at:], '"') + 1
		end := at + bytes.IndexByte(s.b[at:], '"')
		src := s.b[at:end]
		at = end + 1
		if len(src)%4 != 0 {
			return false
		}
		first := len(backing)
		var bad int
		var err error
		if backing, bad, err = wire.DecodeRow(backing, src); err != nil || bad >= 0 {
			return false
		}
		// The decoder skips CR and LF, which JSON refuses raw in a
		// string; a row that held any decodes short of its length.
		pad := len(src) - len(bytes.TrimRight(src, "="))
		if 4*(len(backing)-first) != base64.StdEncoding.DecodedLen(len(src))-pad {
			return false
		}
		rows[i] = backing[first:]
	}
	*dst = rows
	return true
}
