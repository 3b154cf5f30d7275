package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"elsa"
	"elsa/internal/workload"
	"elsa/serve/client"
)

// attend-oneshot: independent callers send POST /v1/attend on a seeded
// Poisson schedule (an open loop). Few query rows against a long K/V make
// the wire codec, admission and dispatch the bulk of the cost.
const (
	attendPoolSize = 400
	// attendLimit is the latency limit, and the envelope deadline_ms.
	attendLimit = 500 * time.Millisecond
	// The server answers about 45 ops/s on an idle 2-core host and about
	// 27 ops/s when the hypervisor steals 30% of it. attendNominal is about
	// half the latter, so nominal latency stays a service time rather than
	// a queue on a busy host; attendSaturating is over three times the
	// former, so a threefold serving speed-up still shows as goodput.
	attendNominal    = 12.0
	attendSaturating = 160.0
	// attendBacklog bounds ops waiting for a free sender. An op that finds
	// it full is abandoned at once, as one whose deadline would pass before
	// a sender is free: the generator's CPU then stays flat however far
	// the offered rate exceeds what the server answers.
	attendBacklog = 8
)

// attendRes is one scheduled op's fate.
type attendRes struct {
	idx              int // pool index
	due, sent, done  time.Time
	late             time.Duration // how late the schedule released it
	sentOK, ok, shed bool
	req              uint64
}

type attendRun struct {
	cfg   runCfg
	out   *runOut
	pool  []*op
	cl    *client.Client
	srv   *child
	rec   *Recorder
	mu    sync.Mutex
	reqID uint64
	order []int // seeded sending order over the pool
	next  int   // ops sent so far
}

// genAttendPool builds the ops attend-oneshot sends: the same number from
// each dataset, lengths spread over its length model, 1–8 query rows in
// equal shares, 80% at p = 1 and 20% exact.
func genAttendPool(rng *rand.Rand) []*op {
	var pool []*op
	per := attendPoolSize / len(workload.AllDatasets())
	for _, ds := range workload.AllDatasets() {
		kinds := kindPattern(rng, per, [4]int{4, 0, 1, 0})
		for i, n := range stratifiedLengths(rng, ds, per) {
			inst := ds.GenerateLen(rng, headDim, n)
			idx := rng.Perm(n)[:1+i%8]
			pool = append(pool, &op{ds: ds.Name, q: pickRows(inst.Q, idx), k: inst.K, v: inst.V, kind: kinds[i]})
		}
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	return pool
}

// calibSamples returns every op's keys with up to perOp of its query rows,
// evenly spaced. Calibrating across the whole pool keeps the operating
// point, and with it output_err, nearly the same from seed to seed.
func calibSamples(pool []*op, perOp int) []elsa.Sample {
	var s []elsa.Sample
	for _, o := range pool {
		q := rows(o.q)
		step := max(1, len(q)/perOp)
		var sub [][]float32
		for i := 0; i < len(q); i += step {
			sub = append(sub, q[i])
		}
		s = append(s, elsa.Sample{Q: sub, K: rows(o.k)})
	}
	return s
}

func attendOptions(o *op) client.AttendOptions {
	return client.AttendOptions{Overrides: o.overrides(), HeadDim: headDim, HashBits: hashBits, Seed: engSeed}
}

func runAttend(c runCfg, out *runOut) error {
	rng := rand.New(rand.NewSource(c.seed))
	eng, err := elsa.New(engineOptions())
	if err != nil {
		return err
	}
	pool := genAttendPool(rng)
	samples := calibSamples(pool, 8)
	thr, err := eng.Calibrate(1, samples)
	if err != nil {
		return err
	}
	for _, o := range pool {
		o.thr = thr
		if err := o.prepare(eng); err != nil {
			return err
		}
	}

	if err := out.probe.startHTTP(); err != nil {
		return err
	}
	defer out.probe.stopHTTP()
	hc, ct := newHTTPClient()
	a := &attendRun{cfg: c, out: out, pool: pool, order: rng.Perm(len(pool))}
	defer func() {
		if a.srv != nil {
			a.srv.stop()
		}
	}()
	var setups setupTimes
	var calibs []float64
	for r := 0; r < setupReps; r++ {
		if a.srv != nil {
			a.srv.stop()
		}
		runtime.GC() // so no earlier garbage is collected inside the set-up
		t0, c0 := time.Now(), selfCPU()
		if a.srv, err = spawnServer(c.trace, hc); err != nil {
			return err
		}
		tc := time.Now()
		again, err := eng.Calibrate(1, samples)
		if err != nil {
			return err
		}
		calibs = append(calibs, time.Since(tc).Seconds())
		if again != thr {
			return fmt.Errorf("calibration is not deterministic: %+v then %+v", thr, again)
		}
		a.cl = client.New(a.srv.base, client.WithHTTPClient(hc))
		first := pool[0]
		res, err := a.cl.Attend(context.Background(), rows(first.q), rows(first.k), rows(first.v), attendOptions(first))
		if err != nil {
			return fmt.Errorf("first attend: %w", err)
		}
		out.attempt(1)
		if msg := first.check(res.Context); msg != "" {
			out.fail("first answer: " + msg)
		}
		wall, cpu := time.Since(t0), selfCPU()-c0
		srvCPU, err := a.srv.cpu(hc)
		if err != nil {
			return err
		}
		setups.add(cpu+srvCPU, wall, out.probe.run())
	}
	setups.report(out, "spawn, health, calibrate, first checked answer")
	out.layer["elsa.calibrate_s"] = median(calibs)
	// From here the server's peak resident set is that of the timed phases.
	if err := resetPeakRSS(a.srv.pid); err != nil {
		return err
	}

	// A phase runs in slices of about probeEvery, each an open loop of its
	// own whose ops are all waited for before the speed probe runs, so that
	// neither the probe nor the cost readings overlap the load.
	phase := func(name string, rate float64, dur time.Duration, rec *Recorder) ([]attendRes, phaseCost, error) {
		a.rec = rec
		if err := a.srv.setTrace(hc, rec != nil); err != nil {
			return nil, phaseCost{}, err
		}
		rng := rand.New(rand.NewSource(c.seed*7919 + int64(len(name))))
		slices := max(1, int((dur+probeEvery/2)/probeEvery))
		var res []attendRes
		var cost phaseCost
		for i := 0; i < slices; i++ {
			pc, err := startCost(a.srv, hc, ct)
			if err != nil {
				return nil, pc, err
			}
			res = append(res, a.phase(rate, dur/time.Duration(slices), rng)...)
			if err := pc.finish(a.srv, hc, ct); err != nil {
				return nil, pc, err
			}
			cost = cost.add(pc)
			out.probe.run()
		}
		return res, cost, nil
	}

	total := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		nom, nomCost, err := phase("nominal", attendNominal, total/2, nil)
		if err != nil {
			return err
		}
		sat, satCost, err := phase("saturating", attendSaturating, total/2, nil)
		if err != nil {
			return err
		}
		a.reportE2E(nom, sat, total/2, nomCost.add(satCost))
		a.reportCost("nominal", nom, nomCost)
		a.reportCost("saturating", sat, satCost)
		out.diag["gen_late_ms"] = meanLate(nom)
		out.diag["client_cpu_ms_per_op"] = nomCost.clientMS(sentCount(nom))
		out.diag["server_cpu_ms_per_op"] = nomCost.serverMS(sentCount(nom))
	} else {
		rec := newRecorder()
		base, _, err := phase("nominal-untraced", attendNominal, total/4, nil)
		if err != nil {
			return err
		}
		nom, nomCost, err := phase("nominal", attendNominal, total/4, rec)
		if err != nil {
			return err
		}
		sat, satCost, err := phase("saturating", attendSaturating, total/2, rec)
		if err != nil {
			return err
		}
		if err := a.srv.setTrace(hc, false); err != nil {
			return err
		}
		srvSpans, err := a.srv.spans(hc)
		if err != nil {
			return err
		}
		if err := a.reportLayers(eng, base, nom, sat, nomCost, satCost, rec.Spans(), srvSpans); err != nil {
			return err
		}
	}
	rss, err := peakRSSMiB(a.srv.pid)
	if err != nil {
		return err
	}
	out.e2e["peak_rss_mb"] = rss
	out.named("peak_rss_mb", rss, "MiB", "server child VmHWM over the timed phases")
	return nil
}

// phase runs one open-loop phase at rate ops/s for dur and returns every
// scheduled op's fate, in schedule order.
func (a *attendRun) phase(rate float64, dur time.Duration, rng *rand.Rand) []attendRes {
	// The schedule (offsets from the phase start) depends only on the seed.
	var res []attendRes
	var offs []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		offs = append(offs, time.Duration(t*float64(time.Second)))
		res = append(res, attendRes{idx: -1})
	}
	start := time.Now()
	for i := range res {
		res[i].due = start.Add(offs[i])
	}

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		backlog []int
		closed  bool
	)
	pop := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for len(backlog) == 0 && !closed {
			cond.Wait()
		}
		if len(backlog) == 0 {
			return 0, false
		}
		i := backlog[0]
		backlog = backlog[1:]
		return i, true
	}

	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := pop()
				if !ok {
					return
				}
				a.send(&res[i])
			}
		}()
	}
	for i := range res {
		time.Sleep(time.Until(res[i].due))
		now := time.Now()
		res[i].late = now.Sub(res[i].due)
		mu.Lock()
		if len(backlog) >= attendBacklog {
			res[i].done = now
		} else {
			backlog = append(backlog, i)
			cond.Signal()
		}
		mu.Unlock()
	}
	mu.Lock()
	closed = true
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()
	a.out.attempt(len(res))
	return res
}

// send sends one op unless its deadline has already passed, and records
// its fate. Refusals (429) and deadline expiries are misses, not
// failures; transport errors, other error statuses and wrong outputs are
// failures.
func (a *attendRun) send(r *attendRes) {
	deadline := r.due.Add(attendLimit)
	if time.Now().After(deadline) {
		r.done = time.Now()
		return
	}
	// Ops are taken in a seeded order at send time, so the ops sent are the
	// same prefix of that order whichever slots were abandoned, and a run
	// sends the whole pool.
	a.mu.Lock()
	a.reqID++
	r.req = a.reqID
	r.idx = a.order[a.next%len(a.order)]
	a.next++
	a.mu.Unlock()
	o := a.pool[r.idx]
	ctx, cancel := context.WithDeadline(withReq(context.Background(), r.req), deadline)
	defer cancel()
	r.sent = time.Now()
	r.sentOK = true
	res, err := a.cl.Attend(ctx, rows(o.q), rows(o.k), rows(o.v), attendOptions(o))
	r.done = time.Now()
	var apiErr *client.APIError
	switch {
	case err == nil:
		if msg := o.check(res.Context); msg != "" {
			a.out.fail(msg)
			return
		}
		r.ok = true
	case errors.As(err, &apiErr) && apiErr.Status == 429:
		r.shed = true
	case errors.Is(err, context.DeadlineExceeded):
	default:
		a.out.fail(err.Error())
	}
	if root := a.rec.Add("op", -1, r.req, r.due, r.done); root >= 0 {
		a.rec.Add("client.attend", root, r.req, r.sent, r.done)
	}
}

func sentCount(res []attendRes) int {
	n := 0
	for _, r := range res {
		if r.sentOK {
			n++
		}
	}
	return n
}

func meanLate(res []attendRes) float64 {
	var v []float64
	for _, r := range res {
		v = append(v, float64(r.late)/1e6)
	}
	return mean(v)
}

// latencies returns every scheduled op's due-time latency in ms; misses
// count as at least the limit.
func latencies(res []attendRes) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = float64(dueLatency(r.due, r.done, r.ok, attendLimit)) / 1e6
	}
	return out
}

func goodput(res []attendRes, dur time.Duration) float64 {
	n := 0
	for _, r := range res {
		if withinLimit(r.due, r.done, r.ok, attendLimit) {
			n++
		}
	}
	return float64(n) / dur.Seconds()
}

// outputErr is the mean 1 − cos against the exact oracle over the
// distinct approximate ops answered. Answers equal the serial library
// result bit for bit (checked), so each op's error is its reference's;
// a run answers the whole pool, so the figure depends on the seed alone.
func (a *attendRun) outputErr(sets ...[]attendRes) float64 {
	seen := map[int]bool{}
	var errs []float64
	for _, res := range sets {
		for _, r := range res {
			if r.ok && a.pool[r.idx].kind.approx() && !seen[r.idx] {
				seen[r.idx] = true
				errs = append(errs, a.pool[r.idx].err)
			}
		}
	}
	return mean(errs)
}

func (a *attendRun) reportE2E(nom, sat []attendRes, satDur time.Duration, cost phaseCost) {
	answered := 0
	for _, set := range [][]attendRes{nom, sat} {
		for _, r := range set {
			if r.ok {
				answered++
			}
		}
	}
	a.out.cpuPerOp(ratio(float64(cost.selfCPU+cost.srvCPU)/1e6, float64(answered)), "client + server process CPU per op answered")
	s := summarize(latencies(nom))
	gp := goodput(sat, satDur)
	e := a.outputErr(nom, sat)
	a.out.diag["p50_ms"] = s.P50
	a.out.diag["tail_ms"] = s.Tail
	a.out.diag["rate_per_s"] = gp
	a.out.e2e["output_err"] = e
	a.out.named("attend_p50_ms", s.P50, "ms", fmt.Sprintf("nominal %.0f/s, from scheduled send, n=%d", attendNominal, s.N))
	a.out.named("attend_tail_ms", s.Tail, "ms", fmt.Sprintf("p%g, n=%d", float64(s.TailPM)/10, s.N))
	a.out.named("attend_goodput_ops_s", gp, "ops/s", fmt.Sprintf("saturating %.0f/s offered, within %v", attendSaturating, attendLimit))
	a.out.named("output_err", e, "1-cos", "approximate ops vs exact oracle")
}

func (a *attendRun) reportCost(name string, res []attendRes, pc phaseCost) {
	sent, ok, shed, abandoned := 0, 0, 0, 0
	for _, r := range res {
		switch {
		case r.ok:
			ok++
		case r.shed:
			shed++
		case !r.sentOK:
			abandoned++
		}
		if r.sentOK {
			sent++
		}
	}
	a.out.linef("phase %-10s scheduled %d sent %d answered %d shed %d abandoned %d; gen late %.3f ms; cpu/op client %.3f ms server %.3f ms; mean batch %.2f",
		name, len(res), sent, ok, shed, abandoned, meanLate(res), pc.clientMS(sent), pc.serverMS(sent),
		ratio(pc.counters.BatchOps, pc.counters.Batches))
}

// reportLayers turns the traced phases into per-layer metrics: client
// and server spans joined by request id, the engine time of each op from
// replaying it through internal/attention after the run, and the
// counters and CPU figures of both processes.
func (a *attendRun) reportLayers(eng *elsa.Engine, base, nom, sat []attendRes, nomCost, satCost phaseCost, spans, srvSpans []Span) error {
	out := a.out
	handler := map[uint64]float64{}
	for _, s := range srvSpans {
		if s.Name == "serve.attend" {
			handler[s.Req] = float64(s.Dur())
		}
	}
	// Replay every distinct op the traced nominal phase answered: the ops
	// the layer split below attributes.
	used := map[int]bool{}
	var ops []*op
	for _, r := range nom {
		if r.ok && !used[r.idx] {
			used[r.idx] = true
			ops = append(ops, a.pool[r.idx])
		}
	}
	rp, err := newReplayer(eng)
	if err != nil {
		return err
	}
	st := newReplayStats()
	if err := rp.replay(ops, st); err != nil {
		return err
	}
	st.layerMetrics(out.layer)

	// The layer split uses the nominal phase: under saturation most of an
	// op's time is spent waiting for a free sender, which is the
	// generator's backlog, not a layer of the system.
	acct := newLayerAcct()
	var clientSelf, serveSelf, handlerMS []float64
	for _, set := range [][]attendRes{nom} {
		for _, r := range set {
			h, ok := handler[r.req]
			if !r.ok || !ok {
				continue
			}
			call := float64(r.done.Sub(r.sent))
			engNS := st.engineNS[a.pool[r.idx]]
			acct.ops++
			acct.root += float64(r.done.Sub(r.due))
			acct.wall += float64(r.done.Sub(r.due))
			acct.addSelf("bench", float64(r.sent.Sub(r.due)))
			acct.addSelf("serve/client", call-h)
			acct.addSelf("internal/serve", h-engNS)
			acct.addSelf(engineLayer, engNS)
			clientSelf = append(clientSelf, (call-h)/1e6)
			serveSelf = append(serveSelf, (h-engNS)/1e6)
			handlerMS = append(handlerMS, h/1e6)
		}
	}
	if acct.ops == 0 {
		return fmt.Errorf("no traced op has both a client and a server span")
	}
	acct.report(out)

	cost := nomCost.add(satCost)
	sent := sentCount(nom) + sentCount(sat)
	out.layer["client.cpu_ms_per_op"] = cost.clientMS(sent)
	out.layer["engine_host.cpu_ms_per_op"] = cost.serverMS(sent)
	out.layer["bench.gen_late_ms"] = meanLate(nom)
	pBase, pNom := summarize(latencies(base)).P50, summarize(latencies(nom)).P50
	out.layer["bench.trace_overhead"] = ratio(pNom-pBase, pBase)

	out.named("client.self_ms", mean(clientSelf), "ms", "client call minus server handler span")
	out.named("client.req_bytes", ratio(float64(cost.bytes), float64(cost.reqs)), "B", "request body bytes per request")
	out.named("client.cpu_ms_per_op", cost.clientMS(sent), "ms", "generator process CPU per op sent")
	out.named("serve.handler_ms.attend", mean(handlerMS), "ms", "server ServeHTTP span")
	out.named("serve.self_ms", mean(serveSelf), "ms", "handler span minus engine replay of the same op")
	out.named("serve.cpu_ms_per_op", cost.serverMS(sent), "ms", "server process utime+stime per op sent")
	out.named("serve.mean_batch", ratio(cost.counters.BatchOps, cost.counters.Batches), "ops", "elsa_serve_batch_ops_total / batches_total")
	out.named("serve.shed_frac", ratio(cost.counters.Shed, cost.counters.Shed+cost.counters.Admitted), "fraction", "elsa_serve_admission_total not admitted")
	out.named("bench.gen_late_ms", meanLate(nom), "ms", "mean release lateness against the schedule (nominal)")
	out.named("bench.trace_overhead", out.layer["bench.trace_overhead"], "fraction", fmt.Sprintf("nominal p50 traced %.3f ms vs untraced %.3f ms", pNom, pBase))
	for _, l := range st.phaseTable() {
		out.linef("%s", l)
	}
	a.reportCost("nominal", nom, nomCost)
	a.reportCost("saturating", sat, satCost)

	all := append(append([]Span(nil), spans...), srvSpans...)
	path, err := writeSpans(traceDir(), fmt.Sprintf("attend-oneshot-%d.jsonl", a.cfg.seed), all)
	if err != nil {
		return err
	}
	out.linef("spans: %d client + %d server written to %s", len(spans), len(srvSpans), path)
	// e2e figures of the traced phases, for the report only.
	a.reportE2E(nom, sat, satCost.wall, nomCost.add(satCost))
	return nil
}
