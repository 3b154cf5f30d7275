package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer: its name, its interval in
// nanoseconds since the recording process's epoch, the span that caused
// it (-1 for a root), and the request it belongs to (0 when none). Spans
// recorded by the server child carry the request id the client sent, which
// is how the two processes' spans are joined.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory. A nil or disabled *Recorder records
// nothing, so an untraced run pays one check per call site.
type Recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// newRecorder returns an enabled recorder.
func newRecorder() *Recorder {
	r := &Recorder{epoch: time.Now(), spans: make([]Span, 0, 1<<14)}
	r.on.Store(true)
	return r
}

// enabled reports whether spans are being recorded.
func (r *Recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Begin opens a span and returns its id (-1 on a nil recorder).
func (r *Recorder) Begin(name string, parent int, req uint64) int {
	if !r.enabled() {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: t, End: -1})
	r.mu.Unlock()
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// Add records an already-measured interval given as wall-clock times.
func (r *Recorder) Add(name string, parent int, req uint64, start, end time.Time) int {
	if !r.enabled() {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	r.mu.Unlock()
	return id
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children that overlap each other
// (parallel calls) are counted once, as the union of their intervals,
// clipped to the parent's interval.
func selfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - coveredWithin(kids[s.ID], s.Start, s.End)
	}
	return out
}

// coveredWithin is the total length of the union of ivs clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes spans as JSON lines under dir, returning the path.
func writeSpans(dir, name string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return path, f.Close()
}
