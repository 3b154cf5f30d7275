package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The speed probe measures how fast the host runs a fixed piece of work
// right now. The benchmark host is a small guest on a shared machine: the
// CPU time the same code needs for the same work moves by up to twofold
// with what the machine's other guests do (shared cores and caches, clock
// speed), and the state lasts for minutes. The probe is the benchmark's
// own code and never changes with the program, so CPU time divided by the
// probe's CPU time per unit moves with the program and not with the host.
// Runs interleave short probes with the work they measure, so that both
// see the same host, and report CPU times scaled to a host on which one
// probe unit takes probeRefMS of CPU.
const probeRefMS = 1.0

// On engine-offline one probe unit is exact attention of probeQ queries
// against a window of probeN keys of width headDim (scores, softmax,
// weighted sum), sign-bit hashing of those keys with probeBits
// hyperplanes, a sort of the scores, and a JSON round trip of the
// queries: the arithmetic and branches of the engine's kernels.
// Successive units take successive windows of a probeArena-key arena
// (2 MiB), so the keys stream from beyond the core's private caches, as
// the engine's larger inputs do.
const (
	probeQ     = 8
	probeN     = 256
	probeArena = 8192
	probeBits  = 32
	// probeUnits is how many units one round does on each of GOMAXPROCS
	// goroutines, about 15 ms of CPU in all; a probe is probeRounds rounds.
	probeUnits  = 4
	probeRounds = 3
	// probeEvery is how often the timed phases stop to probe.
	probeEvery = 2500 * time.Millisecond
)

type probeData struct {
	q, k, v, planes [][]float32
}

var probeInput = sync.OnceValue(func() *probeData {
	rng := rand.New(rand.NewSource(1))
	mk := func(n int) [][]float32 {
		m := make([][]float32, n)
		for i := range m {
			m[i] = make([]float32, headDim)
			for j := range m[i] {
				m[i][j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
	return &probeData{q: mk(probeQ), k: mk(probeArena), v: mk(probeArena), planes: mk(probeBits)}
})

// probeWindow hands out key windows to units.
var probeWindow atomic.Int64

// probeUnit does one unit of probe work and returns a checksum of it.
func probeUnit(p *probeData, scores []float64, codes []uint32, ctx []float64) float64 {
	off := int(probeWindow.Add(1)%(probeArena/probeN)) * probeN
	keys, vals := p.k[off:off+probeN], p.v[off:off+probeN]
	var sum float64
	for i, k := range keys {
		var c uint32
		for b, pl := range p.planes {
			if dot32(k, pl) >= 0 {
				c |= 1 << b
			}
		}
		codes[i] = c
		sum += float64(c & 1)
	}
	for _, q := range p.q {
		mx := math.Inf(-1)
		for i, k := range keys {
			scores[i] = float64(dot32(q, k)) / 8
			mx = math.Max(mx, scores[i])
		}
		var z float64
		for i := range scores {
			scores[i] = math.Exp(scores[i] - mx)
			z += scores[i]
		}
		for j := range ctx {
			ctx[j] = 0
		}
		for i, v := range vals {
			w := scores[i] / z
			for j, x := range v {
				ctx[j] += w * float64(x)
			}
		}
		sort.Float64s(scores)
		sum += ctx[0] + scores[len(scores)/2]
	}
	raw, err := json.Marshal(p.q)
	var back [][]float32
	if err == nil {
		err = json.Unmarshal(raw, &back)
	}
	if err != nil || len(back) != probeQ {
		panic("probe: JSON round trip failed")
	}
	return sum + float64(back[0][0])
}

func dot32(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// The HTTP workloads spend their CPU time mostly in the kernel's loopback
// networking, net/http and JSON, which a host slowdown moves by other
// factors than it moves arithmetic. Their probe unit is therefore an HTTP
// exchange with a server inside the benchmark process: one POST of a
// JSON-encoded probeRows x headDim matrix that the server decodes and
// reduces, then probeSmall POSTs of a single row, each answered with a
// small JSON object.
const (
	probeRows  = 64
	probeSmall = 4
)

type httpProbe struct {
	ln  net.Listener
	srv *http.Server
	cl  *http.Client
	url string
	big [][]float32
}

func newHTTPProbe() (*httpProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	h := &httpProbe{ln: ln, url: "http://" + ln.Addr().String() + "/", big: probeInput().k[:probeRows]}
	h.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m [][]float32
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sum float64
		for _, row := range m {
			sum += float64(dot32(row, row))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"rows": len(m), "sum": sum})
	})}
	go h.srv.Serve(ln)
	n := runtime.GOMAXPROCS(0)
	h.cl = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	return h, nil
}

// post sends m and returns the row count the server read.
func (h *httpProbe) post(m [][]float32) int {
	body, err := json.Marshal(m)
	if err != nil {
		panic("speed probe: " + err.Error())
	}
	resp, err := h.cl.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		panic("speed probe: " + err.Error())
	}
	defer resp.Body.Close()
	var got struct {
		Rows int     `json:"rows"`
		Sum  float64 `json:"sum"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("speed probe: status %d: %v", resp.StatusCode, err))
	}
	io.Copy(io.Discard, resp.Body)
	return got.Rows
}

func (h *httpProbe) unit() float64 {
	n := h.post(h.big)
	for i := 0; i < probeSmall; i++ {
		n += h.post(h.big[i : i+1])
	}
	if n != probeRows+probeSmall {
		panic("speed probe: server read the wrong rows")
	}
	return float64(n)
}

// close stops the probe's server and waits for it.
func (h *httpProbe) close() {
	h.cl.CloseIdleConnections()
	h.srv.Close()
}

// speedProbe collects the probes of one run.
type speedProbe struct {
	mu   sync.Mutex
	http *httpProbe    // nil: arithmetic units
	cpu  time.Duration // this process's CPU time while probing
	per  []float64     // ms of CPU per unit, one per probe
}

// startHTTP makes the probe's units HTTP exchanges; stopHTTP ends them.
func (sp *speedProbe) startHTTP() error {
	var err error
	sp.http, err = newHTTPProbe()
	return err
}

func (sp *speedProbe) stopHTTP() {
	if sp.http != nil {
		sp.http.close()
	}
}

// run probes once: it finishes any garbage collection, so that no
// collection of the measured work's heap runs inside the probe, then does
// probeRounds rounds and returns their median CPU time per unit in ms. The
// caller makes sure the measured work is not running meanwhile. All of
// it, the collection too, counts as the probe's CPU time.
func (sp *speedProbe) run() float64 {
	c0 := selfCPU()
	runtime.GC()
	reads := make([]float64, probeRounds)
	for i := range reads {
		reads[i] = sp.round()
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.cpu += selfCPU() - c0
	sp.per = append(sp.per, reads...)
	return median(reads)
}

// round does probeUnits units on each of GOMAXPROCS goroutines at once, so
// that every CPU the work runs on is probed, and returns the CPU time per
// unit in ms.
func (sp *speedProbe) round() float64 {
	p := probeInput()
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	c0 := selfCPU()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scores, codes, ctx := make([]float64, probeN), make([]uint32, probeN), make([]float64, headDim)
			for u := 0; u < probeUnits; u++ {
				if sp.http != nil {
					sums[g] += sp.http.unit()
				} else {
					sums[g] += probeUnit(p, scores, codes, ctx)
				}
			}
		}(g)
	}
	wg.Wait()
	cpu := selfCPU() - c0
	for _, s := range sums {
		probeSink += s
	}
	return float64(cpu) / 1e6 / float64(n*probeUnits)
}

// probeSink keeps the compiler from discarding probe results.
var probeSink float64

// cpuTime is the CPU time the probes of this run have taken so far.
func (sp *speedProbe) cpuTime() time.Duration {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.cpu
}

// scale converts CPU milliseconds measured during this run to reference
// milliseconds: those of a host on which one probe unit takes probeRefMS.
// It uses the median probe of the run.
func (sp *speedProbe) scale(ms float64) float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return ms * probeRefMS / median(sp.per)
}

// report adds the probe's readings to the diag line and the per-layer
// metrics.
func (sp *speedProbe) report(out *runOut) {
	sp.mu.Lock()
	q1, med, q3 := quartiles(sp.per)
	n := len(sp.per)
	sp.mu.Unlock()
	out.diag["probe_ms_per_unit"] = med
	out.layer["bench.probe_ms_per_unit"] = med
	out.linef("speed probe: %d probes, CPU ms per unit median %.4f (q1 %.4f, q3 %.4f); CPU times are scaled by %.4f to a host where a unit takes %g ms",
		n, med, q1, q3, probeRefMS/med, probeRefMS)
}
