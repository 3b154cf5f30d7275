package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"elsa"
	"elsa/internal/workload"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 0},      // too few even for the median: report the maximum
		{19, 0},     // 19 − rank(p50)=10 leaves 9
		{20, 500},   // exactly 10 beyond the median
		{39, 500},   // p75 would leave 9
		{40, 750},   //
		{100, 900},  //
		{199, 900},  // p95 would leave 9
		{200, 950},  //
		{999, 950},  // p99 would leave 9
		{1000, 990}, //
		{50000, 990},
	} {
		got := tailPerMille(c.n)
		if got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 && c.n-rankOf(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond", c.n, got/10, c.n-rankOf(got, c.n))
		}
	}
}

func TestSummarizeUsesNearestRank(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	s := summarize(vals)
	if s.N != 200 || s.TailPM != 950 {
		t.Fatalf("summary %+v, want n=200 at p95", s)
	}
	if s.P50 != 100 || s.Tail != 190 {
		t.Errorf("p50 %v tail %v, want 100 and 190 (ten samples, 191..200, beyond)", s.P50, s.Tail)
	}
	if m := summarize([]float64{3, 1, 2}); m.TailPM != 0 || m.Tail != 3 {
		t.Errorf("three samples: %+v, want the maximum as tail", m)
	}
}

func TestDueLatencyCountsAbandonedOpsAsMisses(t *testing.T) {
	limit := 500 * time.Millisecond
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	res := []attendRes{
		{due: t0, sent: ms(5), done: ms(30), sentOK: true, ok: true}, // answered: 30 ms from due, not 25 from send
		{due: t0, done: ms(1)}, // abandoned at once (backlog full)
		{due: t0, sent: ms(2), done: ms(40), sentOK: true, shed: true}, // refused with 429
		{due: t0, done: ms(700)}, // abandoned after its deadline passed
		{due: t0, sent: ms(100), done: ms(600), sentOK: true, ok: true}, // answered, but late
	}
	got := latencies(res)
	want := []float64{30, 500, 500, 700, 600}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("op %d: latency %v ms, want %v", i, got[i], want[i])
		}
	}
	// Only the first op is answered correctly within the limit.
	if gp := goodput(res, 2*time.Second); gp != 0.5 {
		t.Errorf("goodput %v ops/s, want 0.5", gp)
	}
	if !withinLimit(t0, ms(500), true, limit) || withinLimit(t0, ms(501), true, limit) || withinLimit(t0, ms(1), false, limit) {
		t.Error("withinLimit: the limit is inclusive and a failed op never counts")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 4, Parent: 1, Start: 15, End: 25},
		{ID: 5, Parent: -1, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// Span 0 is covered on [10,60] and [90,100]: 60 of its 100.
	want := map[int]int64{0: 40, 1: 20, 2: 30, 3: 30, 4: 10, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	if c := coveredWithin([][2]int64{{5, 10}, {0, 3}, {2, 6}}, 0, 100); c != 10 {
		t.Errorf("union of [5,10],[0,3],[2,6] = %d, want 10", c)
	}
}

func TestRecorderDisabledRecordsNothing(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Begin("x", -1, 0); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.End(-1)
	r := newRecorder()
	r.on.Store(false)
	r.Add("x", -1, 1, time.Now(), time.Now())
	r.on.Store(true)
	id := r.Begin("y", -1, 2)
	r.End(id)
	if s := r.Spans(); len(s) != 1 || s[0].Name != "y" || s[0].Req != 2 {
		t.Fatalf("spans %+v, want only the enabled one", s)
	}
}

func TestReconciliationShowsClampedSelfTime(t *testing.T) {
	out := newRunOut()
	acct := newLayerAcct()
	acct.ops, acct.root, acct.wall = 1, 100, 100
	acct.addSelf("serve/client", 30)
	acct.addSelf("internal/serve", -20) // replay longer than the handler
	acct.addSelf(engineLayer, 90)
	acct.report(out)
	if g := out.diag["recon_gap"]; math.Abs(g-0.2) > 1e-12 {
		t.Errorf("gap %v, want +0.2 from the clamped negative self time", g)
	}
	if s := out.layer["layers.engine_share"]; math.Abs(s-0.75) > 1e-12 {
		t.Errorf("engine share %v, want 0.75", s)
	}
}

const metricsText = `# HELP elsa_serve_batches_total Micro-batches dispatched to the attention engine.
# TYPE elsa_serve_batches_total counter
elsa_serve_batches_total 40
elsa_serve_batch_ops_total 100
elsa_serve_batch_size_bucket{le="1"} 12
elsa_serve_batch_size_bucket{le="+Inf"} 40
# TYPE elsa_serve_admission_total counter
elsa_serve_admission_total{decision="admitted"} 90
elsa_serve_admission_total{decision="shed_deadline"} 7
elsa_serve_admission_total{decision="shed_quota"} 3
elsa_serve_decode_batches_total 10
elsa_serve_decode_batch_ops_total 160
elsa_serve_decode_coalesced_total 150
elsa_serve_request_seconds_sum 1.5e-01
malformed line without a value
elsa_serve_weird{a="b c"} 4 1700000000
`

func TestParseMetricsCounters(t *testing.T) {
	p := parseProm(metricsText)
	c := readServeCounters(p)
	want := serveCounters{Batches: 40, BatchOps: 100, Admitted: 90, Shed: 10,
		DecodeBatches: 10, DecodeOps: 160, DecodeShared: 150}
	if c != want {
		t.Errorf("counters %+v, want %+v", c, want)
	}
	if v := p[`elsa_serve_batch_size_bucket{le="+Inf"}`]; v != 40 {
		t.Errorf("labelled bucket = %v, want 40", v)
	}
	if v := p["elsa_serve_request_seconds_sum"]; v != 0.15 {
		t.Errorf("exponent value = %v, want 0.15", v)
	}
	if v := p[`elsa_serve_weird{a="b c"}`]; v != 4 {
		t.Errorf("label with a space and a timestamp = %v, want 4", v)
	}
	before := parseProm("elsa_serve_batches_total 15\n")
	if d := readServeCounters(p.delta(before)); d.Batches != 25 || d.Shed != 10 {
		t.Errorf("delta %+v, want 25 batches and 10 sheds", d)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestWorseByRespectsDirection(t *testing.T) {
	if w := worseBy(100, 110, "lower"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("latency 100 → 110: worse by %v, want 0.1", w)
	}
	if w := worseBy(100, 110, "higher"); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("throughput 100 → 110: worse by %v, want −0.1", w)
	}
}

func TestVerifyKeepsReferenceInStepPastMissingReplies(t *testing.T) {
	eng, err := elsa.New(engineOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := &decodeRun{eng: eng}
	sp := genSession(3, 2*len(workload.AllDatasets())) // an exact linear-scan session
	if sp.kind != kindLinear {
		t.Fatalf("session kind %v, want %v", sp.kind, kindLinear)
	}
	// The replies a correct server gives: the stream's answer to each
	// token's query before that token's K/V is appended.
	s := eng.NewStream(sp.prompt + sp.outLen)
	for i := 0; i < sp.prompt; i++ {
		if err := s.Append(sp.k.Row(i), sp.v.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	ov := elsa.Overrides{Backend: elsa.BackendLinearScan}
	replies := make([][]float32, 8)
	for i := range replies {
		row := sp.prompt + i
		if replies[i], _, err = s.QueryOverrides(nil, sp.q.Row(row), ov, elsa.Exact()); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(sp.k.Row(row), sp.v.Row(row)); err != nil {
			t.Fatal(err)
		}
	}
	replies[2] = nil                   // lost in transport, counted when it was sent
	replies[4][0] += 1                 // wrong
	replies[6][1] = -replies[6][1] - 1 // wrong
	_, fails := d.verify(sp, replies)
	if len(fails) != 2 || !strings.Contains(fails[0], "token 4 ") || !strings.Contains(fails[1], "token 6 ") {
		t.Fatalf("failures %q, want tokens 4 and 6 only", fails)
	}
}

func TestProbeScalesByMedianReading(t *testing.T) {
	var sp speedProbe
	sp.per = []float64{2.0, 9.0, 1.9, 2.1, 0.1} // median 2.0
	if got := sp.scale(8); math.Abs(got-4*probeRefMS) > 1e-12 {
		t.Errorf("scale(8 ms) at 2 ms/unit = %g, want %g", got, 4*probeRefMS)
	}
	var s setupTimes
	s.add(300*time.Millisecond, time.Second, 3.0)
	s.add(100*time.Millisecond, time.Second, 1.0)
	for i, want := range []float64{0.1, 0.1} {
		if math.Abs(s.scaled[i]-want*probeRefMS) > 1e-12 {
			t.Errorf("set-up %d scaled to %g s, want %g", i, s.scaled[i], want*probeRefMS)
		}
	}
}

func TestProbeReadingIsPositiveAndRecorded(t *testing.T) {
	for _, useHTTP := range []bool{false, true} {
		var sp speedProbe
		if useHTTP {
			if err := sp.startHTTP(); err != nil {
				t.Fatal(err)
			}
		}
		ms := sp.run()
		sp.stopHTTP()
		if !(ms > 0) || len(sp.per) != probeRounds || ms != median(sp.per) || sp.cpuTime() <= 0 {
			t.Errorf("http %v: probe read %g ms/unit, recorded %v, CPU %v", useHTTP, ms, sp.per, sp.cpuTime())
		}
	}
}
