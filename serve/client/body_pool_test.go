package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"elsa/internal/wire"
)

// randRows is a seeded rows×64 matrix of normal floats.
func randRows(rng *rand.Rand, rows int) [][]float32 {
	m := make([][]float32, rows)
	for i := range m {
		m[i] = make([]float32, 64)
		for j := range m[i] {
			m[i][j] = float32(rng.NormFloat64())
		}
	}
	return m
}

// replyTransport answers every request with a fixed /v1/attend reply,
// without a network. Each request's body goes to read, which owns it
// from then on (it must close it); nil read reads and closes it in
// RoundTrip.
type replyTransport struct {
	reply []byte
	read  func(req *http.Request)
}

func (t *replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.read != nil {
		t.read(req)
	} else {
		io.Copy(io.Discard, req.Body) //nolint:errcheck // a bytes reader
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(t.reply)),
		Request:    req,
	}, nil
}

// attendReply is an attend reply holding ctx packed.
func attendReply(t *testing.T, ctx [][]float32) []byte {
	reply, err := json.Marshal(wire.AttendResponse{ContextPacked: PackRows(ctx)})
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestAttendBodyReused pins the client's pooled request body: a steady
// Attend of 4 queries over 320 keys at d = 64 allocates well under its
// 223 KB body per call, because the body buffer goes back to the pool
// once the transport closes it. The request declares its exact length,
// so it is never sent chunked. Under -race sync.Pool drops buffers at
// random, so the bound is checked in plain builds only.
func TestAttendBodyReused(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q, k, v := randRows(rng, 4), randRows(rng, 320), randRows(rng, 320)
	want, err := attendBody(wire.Envelope[any]{}, q, k, v, AttendOptions{HeadDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	size := len(want)
	rt := &replyTransport{reply: attendReply(t, q)}
	rt.read = func(req *http.Request) {
		if req.ContentLength != int64(size) || len(req.TransferEncoding) != 0 {
			t.Errorf("request declares length %d, transfer encoding %v; want length %d", req.ContentLength, req.TransferEncoding, size)
		}
		io.Copy(io.Discard, req.Body) //nolint:errcheck // a bytes reader
		req.Body.Close()
	}
	c := New("http://elsa.invalid", WithHTTPClient(&http.Client{Transport: rt}))
	call := func() {
		if _, err := c.Attend(context.Background(), q, k, v, AttendOptions{HeadDim: 64}); err != nil {
			t.Fatal(err)
		}
	}
	call()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			call()
		}
	})
	perOp := res.AllocedBytesPerOp()
	t.Logf("%d B allocated per Attend for a %d B body", perOp, size)
	if !raceEnabled && perOp > int64(size)/4 {
		t.Errorf("Attend allocates %d B per call for a %d B body: the body is not reused", perOp, size)
	}
}

// TestAttendBodyOutlivesRoundTrip: a transport may read and close a body
// after RoundTrip returns, and may take another reader of it through
// GetBody. The body's buffer must stay whole until every reader is
// closed, while the caller goes on sending (and the pool recycling)
// other bodies. TestMain poisons every released buffer, so a buffer
// released early reads 0xFF, or another body.
func TestAttendBodyOutlivesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type op struct {
		q, k, v [][]float32
		body    []byte
	}
	ops := make([]op, 6)
	for i := range ops {
		o := op{q: randRows(rng, 4), k: randRows(rng, 160+32*i), v: randRows(rng, 160+32*i)}
		body, err := attendBody(wire.Envelope[any]{}, o.q, o.k, o.v, AttendOptions{HeadDim: 64})
		if err != nil {
			t.Fatal(err)
		}
		o.body = bytes.Clone(body)
		wire.BytePool.Put(body)
		ops[i] = o
	}
	var wg sync.WaitGroup
	late := make([][2][]byte, len(ops)) // each op's two late reads
	sent := 0                           // RoundTrip runs on the sending goroutine
	rt := &replyTransport{reply: attendReply(t, ops[0].q)}
	rt.read = func(req *http.Request) {
		again, err := req.GetBody()
		if err != nil {
			t.Error(err)
			return
		}
		reads := &late[sent]
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(20 * time.Millisecond) // the caller has moved on
			for j, rd := range []io.ReadCloser{req.Body, again} {
				var err error
				reads[j], err = io.ReadAll(rd)
				rd.Close()
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	c := New("http://elsa.invalid", WithHTTPClient(&http.Client{Transport: rt}))
	for _, o := range ops {
		if _, err := c.Attend(context.Background(), o.q, o.k, o.v, AttendOptions{HeadDim: 64}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, o := range ops {
		for j, got := range late[i] {
			if !bytes.Equal(got, o.body) {
				t.Errorf("op %d reader %d read %d bytes after Attend returned, not its %d-byte body (first bytes %q)",
					i, j, len(got), len(o.body), strings.ToValidUTF8(string(got[:min(len(got), 16)]), "?"))
			}
		}
	}
}
