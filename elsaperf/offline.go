package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"elsa"
	"elsa/internal/workload"
)

// engine-offline: in-process elsa.Engine.AttendBatch over full-head
// self-attention ops (n_q = n) at the paper's model/dataset combinations,
// with no HTTP. Hashing, candidate selection, scoring and the exact
// kernels do nearly all the work.
const (
	offlinePoolSize = 96
	offlineBatch    = 16
	// offlineReplayOps caps the ops replayed phase by phase.
	offlineReplayOps = 24
)

type offlineRun struct {
	cfg  runCfg
	out  *runOut
	pool []*op
	bops []elsa.BatchOp
	eng  *elsa.Engine
	p1   elsa.Threshold
	p2   elsa.Threshold
}

// offlineBatchRes is one timed AttendBatch call.
type offlineBatchRes struct {
	idx         []int
	start, done time.Time
	gap         time.Duration // harness time since the previous call ended
	rows        int
}

func runOffline(c runCfg, out *runOut) error {
	rng := rand.New(rand.NewSource(c.seed))
	combos := workload.Combos()
	r := &offlineRun{cfg: c, out: out}
	// The same number of ops per model/dataset combination, lengths spread
	// over each dataset's length model, operating points in fixed shares.
	per := offlinePoolSize / len(combos)
	for _, cb := range combos {
		for _, n := range stratifiedLengths(rng, cb.Dataset, per) {
			inst := cb.Dataset.GenerateLen(rng, headDim, n)
			r.pool = append(r.pool, &op{ds: cb.Name(), q: inst.Q, k: inst.K, v: inst.V})
		}
	}
	// Operating points are dealt out in length order, so that every seed's
	// few exact ops span the length range as its approximate ones do. The
	// exact kernels cost more per key; a seed whose exact ops all drew long
	// inputs would otherwise cost over 15% more per op than one whose drew
	// short ones.
	byLen := make([]*op, len(r.pool))
	copy(byLen, r.pool)
	sort.SliceStable(byLen, func(a, b int) bool { return byLen[a].q.Rows < byLen[b].q.Rows })
	for i, k := range kindPattern(rng, len(byLen), [4]int{4, 4, 1, 1}) {
		byLen[i].kind = k
	}
	rng.Shuffle(len(r.pool), func(a, b int) { r.pool[a], r.pool[b] = r.pool[b], r.pool[a] })
	samples := calibSamples(r.pool, 32)

	var setups setupTimes
	var calibs []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // so no earlier garbage is collected inside the set-up
		t0, c0 := time.Now(), selfCPU()
		eng, err := elsa.New(engineOptions())
		if err != nil {
			return err
		}
		tc := time.Now()
		p1, p2, err := calibrate(eng, samples)
		if err != nil {
			return err
		}
		calibs = append(calibs, time.Since(tc).Seconds())
		wall, cpu := time.Since(t0), selfCPU()-c0
		if rep == 0 {
			// References are the benchmark's work, not set-up: untimed.
			r.p1, r.p2 = p1, p2
			for _, o := range r.pool {
				o.thr = p2
				if o.kind == kindP1 {
					o.thr = p1
				}
				if err := o.prepare(eng); err != nil {
					return err
				}
				r.bops = append(r.bops, elsa.BatchOp{Q: rows(o.q), K: rows(o.k), V: rows(o.v), Overrides: o.overrides()})
			}
			runtime.GC()
		} else if p1 != r.p1 || p2 != r.p2 {
			return fmt.Errorf("calibration is not deterministic")
		}
		t1, c1 := time.Now(), selfCPU()
		outs, err := eng.AttendBatch(r.bops[:1], elsa.Exact(), 0)
		if err != nil {
			return err
		}
		cpu, wall = cpu+selfCPU()-c1, wall+time.Since(t1)
		setups.add(cpu, wall, out.probe.run())
		out.attempt(1)
		if msg := r.pool[0].check(outs[0].Context); msg != "" {
			out.fail("first answer: " + msg)
		}
		r.eng = eng
	}
	setups.report(out, "engine build, calibrate p=1,2, first batch")
	out.layer["elsa.calibrate_s"] = median(calibs)

	// The process's peak resident set is read over the timed phases only,
	// starting from the live data: the inputs, one reference per op and
	// the engine.
	debug.FreeOSMemory()
	rssStart, err := rssMiB(os.Getpid())
	if err != nil {
		return err
	}
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return err
	}
	total := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		pc, _ := startCost(nil, nil, nil) // without a server it reads only getrusage and cannot fail
		res, probeCPU := r.phase(total, rand.New(rand.NewSource(c.seed*7919)), nil)
		if err := pc.finish(nil, nil, nil); err != nil {
			return err
		}
		pc.selfCPU -= probeCPU
		r.reportE2E(res, pc)
		ops := len(res) * offlineBatch
		out.diag["gen_late_ms"] = meanGap(res)
		out.diag["client_cpu_ms_per_op"] = pc.clientMS(ops)
		out.diag["server_cpu_ms_per_op"] = pc.clientMS(ops)
	} else {
		base, _ := r.phase(total/2, rand.New(rand.NewSource(c.seed*7919)), nil)
		rec := newRecorder()
		pc, _ := startCost(nil, nil, nil) // without a server it reads only getrusage and cannot fail
		res, probeCPU := r.phase(total/2, rand.New(rand.NewSource(c.seed*7919+1)), rec)
		if err := pc.finish(nil, nil, nil); err != nil {
			return err
		}
		pc.selfCPU -= probeCPU
		if err := r.reportLayers(base, res, pc, rec.Spans()); err != nil {
			return err
		}
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return err
	}
	out.e2e["peak_rss_mb"] = rss
	out.named("peak_rss_mb", rss, "MiB", fmt.Sprintf("benchmark process VmHWM over the timed phases, from %.1f MiB resident at their start", rssStart))
	out.diag["rss_start_mb"] = rssStart
	return nil
}

// phase runs seeded batches back to back for dur, checking every output,
// and runs the speed probe between batches every probeEvery/5. It returns
// the batches and the CPU time the probes took.
func (r *offlineRun) phase(dur time.Duration, rng *rand.Rand, rec *Recorder) ([]offlineBatchRes, time.Duration) {
	workers := runtime.GOMAXPROCS(0)
	var res []offlineBatchRes
	batch := make([]elsa.BatchOp, offlineBatch)
	var order []int
	start := time.Now()
	last, probed := start, start
	p0 := r.out.probe.cpuTime()
	for time.Since(start) < dur {
		b := offlineBatchRes{idx: make([]int, offlineBatch)}
		for j := range batch {
			// Each pass takes every op of the pool once, in seeded order,
			// so a run's work mix is the pool's and not a sample of it.
			if len(order) == 0 {
				order = rng.Perm(len(r.pool))
			}
			b.idx[j], order = order[0], order[1:]
			batch[j] = r.bops[b.idx[j]]
			b.rows += r.pool[b.idx[j]].q.Rows
		}
		b.start = time.Now()
		b.gap = b.start.Sub(last)
		outs, err := r.eng.AttendBatch(batch, elsa.Exact(), workers)
		b.done = time.Now()
		last = b.done
		rec.Add("batch", -1, uint64(len(res)+1), b.start, b.done)
		r.out.attempt(offlineBatch)
		if err != nil {
			for range batch {
				r.out.fail(err.Error())
			}
		} else {
			for j, o := range outs {
				if msg := r.pool[b.idx[j]].check(o.Context); msg != "" {
					r.out.fail(msg)
				}
			}
		}
		res = append(res, b)
		if time.Since(probed) >= probeEvery/5 {
			r.out.probe.run()
			probed = time.Now()
			last = probed
		}
	}
	return res, r.out.probe.cpuTime() - p0
}

// rate is query rows per second of AttendBatch time.
func rate(res []offlineBatchRes) float64 {
	var busy time.Duration
	n := 0
	for _, b := range res {
		busy += b.done.Sub(b.start)
		n += b.rows
	}
	return float64(n) / busy.Seconds()
}

func meanGap(res []offlineBatchRes) float64 {
	var v []float64
	for _, b := range res[1:] {
		v = append(v, float64(b.gap)/1e6)
	}
	return mean(v)
}

func (r *offlineRun) outputErr(res []offlineBatchRes) float64 {
	seen := map[int]bool{}
	var errs []float64
	for _, b := range res {
		for _, i := range b.idx {
			if o := r.pool[i]; o.kind.approx() && !seen[i] {
				seen[i] = true
				errs = append(errs, o.err)
			}
		}
	}
	return mean(errs)
}

func (r *offlineRun) reportE2E(res []offlineBatchRes, pc phaseCost) {
	r.out.cpuPerOp(pc.clientMS(len(res)*offlineBatch), "benchmark process CPU per op (one head's self-attention)")
	lat := make([]float64, len(res))
	for i, b := range res {
		lat[i] = float64(b.done.Sub(b.start)) / 1e6
	}
	s := summarize(lat)
	tok := rate(res)
	e := r.outputErr(res)
	r.out.diag["rate_per_s"] = tok
	r.out.diag["p50_ms"] = s.P50
	r.out.diag["tail_ms"] = s.Tail
	r.out.e2e["output_err"] = e
	r.out.named("offline_tok_s", tok, "rows/s", fmt.Sprintf("query rows per second of AttendBatch, %d-op batches", offlineBatch))
	r.out.named("batch_p50_ms", s.P50, "ms", fmt.Sprintf("AttendBatch call, n=%d", s.N))
	r.out.named("batch_tail_ms", s.Tail, "ms", fmt.Sprintf("p%g, n=%d", float64(s.TailPM)/10, s.N))
	r.out.named("output_err", e, "1-cos", "approximate ops vs exact oracle")
}

// reportLayers attributes the traced batches' time to the elsa layer and
// the engine from a replay of the same ops, and reports the engine phase
// breakdown.
func (r *offlineRun) reportLayers(base, res []offlineBatchRes, pc phaseCost, spans []Span) error {
	out := r.out
	rp, err := newReplayer(r.eng)
	if err != nil {
		return err
	}
	used := map[int]bool{}
	var ops, sample []*op
	for _, b := range res {
		for _, i := range b.idx {
			if !used[i] {
				used[i] = true
				ops = append(ops, r.pool[i])
			}
		}
	}
	sample = ops[:min(len(ops), offlineReplayOps)]
	st := newReplayStats()
	if err := rp.replay(sample, st); err != nil {
		return err
	}
	st.layerMetrics(out.layer)
	// Engine-path time of every op the traced phase ran.
	engineNS := map[*op]float64{}
	for _, o := range ops {
		t := time.Now()
		if _, err := rp.enginePath(o); err != nil {
			return err
		}
		engineNS[o] = since(t)
	}
	batchSelf := st.batchSelfNS / float64(max(st.ops, 1))

	acct := newLayerAcct()
	workers := float64(runtime.GOMAXPROCS(0))
	for _, b := range res {
		wall := float64(b.done.Sub(b.start))
		acct.root += wall * workers
		acct.wall += wall
		for _, i := range b.idx {
			acct.ops++
			acct.addSelf("elsa", batchSelf)
			acct.addSelf(engineLayer, engineNS[r.pool[i]])
		}
	}
	out.linef("root lane time is AttendBatch wall time x %d workers", int(workers))
	acct.report(out)

	ops2 := len(res) * offlineBatch
	out.layer["client.cpu_ms_per_op"] = pc.clientMS(ops2)
	out.layer["engine_host.cpu_ms_per_op"] = pc.clientMS(ops2)
	out.layer["bench.gen_late_ms"] = meanGap(res)
	rb, rt := rate(base), rate(res)
	out.layer["bench.trace_overhead"] = ratio(rb-rt, rb)
	out.named("elsa.batch_self_ms", out.layer["elsa.batch_self_ms"], "ms", "one-op AttendBatch minus the engine path it runs, per op")
	out.named("client.cpu_ms_per_op", pc.clientMS(ops2), "ms", "benchmark process CPU per op (engine runs in it)")
	out.named("bench.gen_late_ms", meanGap(res), "ms", "harness time between batches (checks, batch assembly)")
	out.named("bench.trace_overhead", out.layer["bench.trace_overhead"], "fraction", fmt.Sprintf("rows/s untraced %.1f traced %.1f", rb, rt))
	for _, l := range st.phaseTable() {
		out.linef("%s", l)
	}
	path, err := writeSpans(traceDir(), fmt.Sprintf("engine-offline-%d.jsonl", r.cfg.seed), spans)
	if err != nil {
		return err
	}
	out.linef("spans: %d written to %s", len(spans), path)
	r.reportE2E(res, pc)
	return nil
}
