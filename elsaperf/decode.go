package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"elsa"
	"elsa/internal/attention"
	"elsa/internal/tensor"
	"elsa/internal/workload"
	"elsa/serve/client"
)

// decode-step: a closed-loop model runner over S concurrent server-side
// decode sessions. Each token is one packed Step wave query (a read) and
// one Append of the token's K/V (a write). Sessions end after a seeded
// output length and a fresh session takes the slot.
const (
	decodeSessions = 16
	// Output lengths are long enough that token-by-token decoding, not the
	// prompt prefill, carries most of a session's work.
	decodeMinOut = 64
	decodeMaxOut = 192
	// decodeReplayOps is how many tokens the traced run replays.
	decodeReplayOps = 32
	// decodeErrSessions: output_err averages the approximate tokens of
	// sessions 0..decodeErrSessions-1, which a run on an idle 2-core host
	// completes, so it depends on the seed alone; a slower run averages the
	// tokens it decoded.
	decodeErrSessions = 256
	// decodeCalibSessions is how many sessions' worth of prompts the p = 1
	// and p = 2 thresholds are calibrated on.
	decodeCalibSessions = 64
)

// sessSpec is one session's inputs, generated from (seed, index) alone so
// that verification can regenerate it instead of keeping it.
type sessSpec struct {
	j       int
	ds      string
	kind    opKind
	prompt  int
	outLen  int
	q, k, v *tensor.Matrix // prompt+outLen rows
}

func genSession(seed int64, j int) *sessSpec {
	// Datasets and operating points rotate with the session index; output
	// and prompt lengths are seeded draws.
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(j)))
	all := workload.AllDatasets()
	m := ((j % len(all)) + len(all)) % len(all)
	ds := all[m]
	out := decodeMinOut + rng.Intn(decodeMaxOut-decodeMinOut+1)
	n0 := ds.SampleLength(rng)
	kind := [...]opKind{kindP1, kindP2, kindLinear}[((j/len(all))%3+3)%3]
	inst := ds.GenerateLen(rng, headDim, n0+out)
	return &sessSpec{j: j, ds: ds.Name, kind: kind, prompt: n0, outLen: out, q: inst.Q, k: inst.K, v: inst.V}
}

// liveSess is a session the runner is decoding.
type liveSess struct {
	spec    *sessSpec
	s       *client.Session
	t       int // tokens done
	created time.Time
	last    time.Time
	replies [][]float32
}

// doneSess is what verification needs of a session: its index and replies.
type doneSess struct {
	j       int
	replies [][]float32
}

type decodeRun struct {
	cfg    runCfg
	out    *runOut
	eng    *elsa.Engine
	p1, p2 elsa.Threshold
	cl     *client.Client
	srv    *child
	rec    *Recorder
	nextJ  int
	reqID  atomic.Uint64
	mu     sync.Mutex
	// rowsIn is how many rows each traced request carried: tokens
	// appended, or queries in a step wave.
	rowsIn map[uint64]int
	done   []doneSess
	ttft   []float64
	gaps   []float64
	tokens int
}

func (d *decodeRun) thrFor(k opKind) elsa.Threshold {
	if k == kindP2 {
		return d.p2
	}
	return d.p1
}

func (d *decodeRun) sessionOptions(sp *sessSpec) client.SessionOptions {
	o := client.SessionOptions{HeadDim: headDim, HashBits: hashBits, Seed: engSeed, Capacity: sp.prompt + sp.outLen}
	if sp.kind.approx() {
		thr := d.thrFor(sp.kind)
		o.Thr = &thr
	} else {
		o.Backend = elsa.BackendLinearScan
	}
	return o
}

// call runs f as one client request carrying rows K/V rows or queries,
// traced as a child of parent.
func (d *decodeRun) call(name string, parent, rows int, f func(ctx context.Context) error) error {
	id := d.reqID.Add(1)
	t := time.Now()
	err := f(withReq(context.Background(), id))
	if d.rec.Add(name, parent, id, t, time.Now()) >= 0 && rows > 0 {
		d.mu.Lock()
		d.rowsIn[id] = rows
		d.mu.Unlock()
	}
	return err
}

// open creates the next session and prefills its prompt.
func (d *decodeRun) open(parent int) (*liveSess, error) {
	d.mu.Lock()
	j := d.nextJ
	d.nextJ++
	d.mu.Unlock()
	sp := genSession(d.cfg.seed, j)
	ls := &liveSess{spec: sp, created: time.Now()}
	err := d.call("client.create", parent, 0, func(ctx context.Context) error {
		var err error
		ls.s, err = d.cl.NewSession(ctx, d.sessionOptions(sp))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("session create: %w", err)
	}
	err = d.call("client.prefill", parent, sp.prompt, func(ctx context.Context) error {
		_, err := ls.s.AppendBatch(ctx, rows(prefix(sp.k, sp.prompt)), rows(prefix(sp.v, sp.prompt)))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("session prefill: %w", err)
	}
	return ls, nil
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// openAll opens n sessions in parallel.
func (d *decodeRun) openAll(n, parent int) ([]*liveSess, error) {
	out := make([]*liveSess, n)
	errs := make([]error, n)
	parallel(n, func(i int) { out[i], errs[i] = d.open(parent) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wave decodes one token for every session of one lane: a Step read,
// then one Append per session, then churn, one request at a time. It
// returns the lane's sessions for its next wave.
func (d *decodeRun) wave(active []*liveSess, keep bool) ([]*liveSess, error) {
	root := d.rec.Begin("wave", -1, 0)
	defer d.rec.End(root)
	queries := make([]client.StepQuery, len(active))
	for i, ls := range active {
		queries[i] = client.StepQuery{Session: ls.s, Q: ls.spec.q.Row(ls.spec.prompt + ls.t)}
	}
	var results []client.StepResult
	err := d.call("client.step", root, len(queries), func(ctx context.Context) error {
		var err error
		results, err = d.cl.Step(ctx, queries)
		return err
	})
	d.out.attempt(len(active))
	if err != nil {
		return nil, fmt.Errorf("step wave: %w", err)
	}
	var ttft, gaps []float64
	var next, ended []*liveSess
	for i, ls := range active {
		if r := results[i]; r.Err != nil {
			d.out.fail(fmt.Sprintf("session %d token %d: %v", ls.spec.j, ls.t, r.Err))
			ls.replies = append(ls.replies, nil)
		} else {
			ls.replies = append(ls.replies, r.Context)
		}
		row := ls.spec.prompt + ls.t
		err := d.call("client.append", root, 1, func(ctx context.Context) error {
			_, err := ls.s.Append(ctx, ls.spec.k.Row(row), ls.spec.v.Row(row))
			return err
		})
		if err != nil {
			d.out.fail(fmt.Sprintf("session %d append %d: %v", ls.spec.j, ls.t, err))
		}
		// The token is complete once its K/V is appended.
		now := time.Now()
		ls.t++
		if ls.t == 1 {
			ttft = append(ttft, float64(now.Sub(ls.created))/1e6)
		} else {
			gaps = append(gaps, float64(now.Sub(ls.last))/1e6)
		}
		ls.last = now
		if ls.t == ls.spec.outLen {
			ended = append(ended, ls)
		} else {
			next = append(next, ls)
		}
	}
	d.mu.Lock()
	if keep {
		d.ttft = append(d.ttft, ttft...)
		d.gaps = append(d.gaps, gaps...)
		d.tokens += len(active)
	}
	for _, ls := range ended {
		d.done = append(d.done, doneSess{j: ls.spec.j, replies: ls.replies})
	}
	d.mu.Unlock()
	for _, ls := range ended {
		err := d.call("client.close", root, 0, func(ctx context.Context) error { return ls.s.Close(ctx) })
		if err != nil {
			d.out.fail(fmt.Sprintf("session %d close: %v", ls.spec.j, err))
		}
		fresh, err := d.open(root)
		if err != nil {
			return nil, err
		}
		next = append(next, fresh)
	}
	return next, nil
}

// runLanes runs one wave loop per lane, concurrently, until dur has
// passed (at least one wave each). It returns when each lane stopped.
func (d *decodeRun) runLanes(lanes [][]*liveSess, dur time.Duration, keep bool) ([]time.Time, error) {
	errs := make([]error, len(lanes))
	stopped := make([]time.Time, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { stopped[i] = time.Now() }()
			for {
				var err error
				if lanes[i], err = d.wave(lanes[i], keep); err != nil {
					errs[i] = err
					return
				}
				if time.Since(start) >= dur {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return stopped, errors.Join(errs...)
}

func runDecode(c runCfg, out *runOut) error {
	d := &decodeRun{cfg: c, out: out, rowsIn: map[uint64]int{}}
	var err error
	if d.eng, err = elsa.New(engineOptions()); err != nil {
		return err
	}
	// Calibration sessions are drawn like the decoded ones, from indices
	// the runner never opens.
	var calib []*op
	for j := 0; j < decodeCalibSessions; j++ {
		sp := genSession(c.seed, -1-j)
		calib = append(calib, &op{q: sp.q, k: sp.k})
	}
	samples := calibSamples(calib, 32)
	if err := out.probe.startHTTP(); err != nil {
		return err
	}
	defer out.probe.stopHTTP()
	hc, ct := newHTTPClient()
	defer func() {
		if d.srv != nil {
			d.srv.stop()
		}
	}()
	var setups setupTimes
	var calibs []float64
	var lanes [][]*liveSess
	for rep := 0; rep < setupReps; rep++ {
		if d.srv != nil {
			d.srv.stop()
		}
		d.nextJ, d.done = 0, nil
		runtime.GC() // so no earlier garbage is collected inside the set-up
		t0, c0 := time.Now(), selfCPU()
		if d.srv, err = spawnServer(c.trace, hc); err != nil {
			return err
		}
		tc := time.Now()
		p1, p2, err := calibrate(d.eng, samples)
		if err != nil {
			return err
		}
		calibs = append(calibs, time.Since(tc).Seconds())
		if rep > 0 && (p1 != d.p1 || p2 != d.p2) {
			return fmt.Errorf("calibration is not deterministic")
		}
		d.p1, d.p2 = p1, p2
		d.cl = client.New(d.srv.base, client.WithHTTPClient(hc))
		sessions, err := d.openAll(decodeSessions, -1)
		if err != nil {
			return err
		}
		first := sessions[0]
		lanes = make([][]*liveSess, runtime.GOMAXPROCS(0))
		for i, ls := range sessions {
			lanes[i%len(lanes)] = append(lanes[i%len(lanes)], ls)
		}
		if _, err := d.runLanes(lanes, 0, false); err != nil {
			return err
		}
		// First correct answer: session 0's first token, checked. The
		// check is the benchmark's work, not set-up.
		wall, cpu := time.Since(t0), selfCPU()-c0
		srvCPU, err := d.srv.cpu(hc)
		if err != nil {
			return err
		}
		setups.add(cpu+srvCPU, wall, out.probe.run())
		if _, fails := d.verify(first.spec, first.replies[:1]); len(fails) > 0 {
			out.fail("first answer: " + fails[0])
		}
	}
	setups.report(out, fmt.Sprintf("spawn, health, calibrate, %d session creates + prefill, first token", decodeSessions))
	out.layer["elsa.calibrate_s"] = median(calibs)
	// From here the server's peak resident set is that of the timed phases.
	if err := resetPeakRSS(d.srv.pid); err != nil {
		return err
	}

	// A phase runs in slices of about probeEvery, with the speed probe
	// between them while every lane waits. The wait is taken out of the
	// token gaps and time to first token of the sessions it holds up.
	run := func(dur time.Duration, rec *Recorder) (phaseCost, error) {
		d.rec = rec
		d.ttft, d.gaps, d.tokens = nil, nil, 0
		if err := d.srv.setTrace(hc, rec != nil); err != nil {
			return phaseCost{}, err
		}
		slices := max(1, int((dur+probeEvery/2)/probeEvery))
		var cost phaseCost
		for i := 0; i < slices; i++ {
			pc, err := startCost(d.srv, hc, ct)
			if err != nil {
				return pc, err
			}
			stopped, err := d.runLanes(lanes, dur/time.Duration(slices), true)
			if err != nil {
				return pc, err
			}
			if err := pc.finish(d.srv, hc, ct); err != nil {
				return pc, err
			}
			cost = cost.add(pc)
			out.probe.run()
			resume := time.Now()
			for i, lane := range lanes {
				wait := resume.Sub(stopped[i])
				for _, ls := range lane {
					ls.created, ls.last = ls.created.Add(wait), ls.last.Add(wait)
				}
			}
		}
		return cost, nil
	}
	total := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		pc, err := run(total, nil)
		if err != nil {
			return err
		}
		d.reportE2E(pc)
		out.diag["client_cpu_ms_per_op"] = pc.clientMS(d.tokens)
		out.diag["server_cpu_ms_per_op"] = pc.serverMS(d.tokens)
	} else {
		base, err := run(total/2, nil)
		if err != nil {
			return err
		}
		baseTok := float64(d.tokens) / base.wall.Seconds()
		rec := newRecorder()
		pc, err := run(total/2, rec)
		if err != nil {
			return err
		}
		if err := d.srv.setTrace(hc, false); err != nil {
			return err
		}
		srvSpans, err := d.srv.spans(hc)
		if err != nil {
			return err
		}
		if err := d.reportLayers(baseTok, pc, rec.Spans(), srvSpans); err != nil {
			return err
		}
	}
	// Sessions still open are verified too.
	for _, lane := range lanes {
		for _, ls := range lane {
			d.done = append(d.done, doneSess{j: ls.spec.j, replies: ls.replies})
		}
	}
	outErr, err := d.verifyAll()
	if err != nil {
		return err
	}
	out.e2e["output_err"] = outErr
	out.named("output_err", outErr, "1-cos", fmt.Sprintf("approximate tokens of sessions 0..%d vs exact oracle", decodeErrSessions-1))
	rss, err := peakRSSMiB(d.srv.pid)
	if err != nil {
		return err
	}
	out.e2e["peak_rss_mb"] = rss
	out.named("peak_rss_mb", rss, "MiB", "server child VmHWM over the timed phases")
	return nil
}

// verify replays one session through a reference elsa.Stream fed the same
// appends and checks each reply: bit for bit against the reference, and
// against the exact oracle within the linear-scan bound for exact
// sessions. It returns the approximate tokens' 1 − cos errors against the
// exact oracle and one message per token that failed the check. A token
// without a reply was counted as failed when it was sent; its append still
// reached the server, so the reference takes it too.
func (d *decodeRun) verify(sp *sessSpec, replies [][]float32) (errs []float64, fails []string) {
	ref := d.eng.NewStream(sp.prompt + sp.outLen)
	for i := 0; i < sp.prompt; i++ {
		if err := ref.Append(sp.k.Row(i), sp.v.Row(i)); err != nil {
			return nil, []string{err.Error()}
		}
	}
	ov := elsa.Overrides{Backend: elsa.BackendLinearScan}
	if sp.kind.approx() {
		thr := d.thrFor(sp.kind)
		ov = elsa.Overrides{Thr: &thr}
	}
	want := make([]float32, headDim)
	for t, got := range replies {
		row := sp.prompt + t
		q := sp.q.Row(row)
		var err error
		if want, _, err = ref.QueryOverrides(want, q, ov, elsa.Exact()); err != nil {
			return errs, append(fails, err.Error())
		}
		if got != nil {
			if msg := d.checkToken(sp, row, got, want); msg != "" {
				fails = append(fails, fmt.Sprintf("session %d token %d %s", sp.j, t, msg))
			} else if sp.kind.approx() {
				errs = append(errs, cosErr(got, d.exactRow(sp, row)))
			}
		}
		if err := ref.Append(sp.k.Row(row), sp.v.Row(row)); err != nil {
			return errs, append(fails, err.Error())
		}
	}
	return errs, fails
}

// checkToken checks one decode reply for the query at row: bit for bit
// against the reference stream's answer want, and exact sessions also
// against the exact oracle within the linear-scan bound.
func (d *decodeRun) checkToken(sp *sessSpec, row int, got, want []float32) string {
	if len(got) != headDim {
		return fmt.Sprintf("has %d columns", len(got))
	}
	if m := checkRow(kindP1, got, want, 0); m != "" {
		return "vs reference stream: " + m
	}
	if !sp.kind.approx() {
		tol := attention.LinearScanTolerance(maxAbs(prefix(sp.v, row)))
		if m := checkRow(kindLinear, got, d.exactRow(sp, row), tol); m != "" {
			return "vs exact oracle: " + m
		}
	}
	return ""
}

// exactRow is the exact oracle's answer to the query at row over the
// keys and values before it.
func (d *decodeRun) exactRow(sp *sessSpec, row int) []float32 {
	qm := &tensor.Matrix{Rows: 1, Cols: headDim, Data: sp.q.Row(row)}
	return attention.Exact(qm, prefix(sp.k, row), prefix(sp.v, row), attention.DefaultScale(headDim)).Row(0)
}

// verifyAll checks every token of every session the run decoded and
// returns output_err over sessions 0..decodeErrSessions-1.
func (d *decodeRun) verifyAll() (float64, error) {
	var errs []float64
	for _, ds := range d.done {
		e, fails := d.verify(genSession(d.cfg.seed, ds.j), ds.replies)
		for _, msg := range fails {
			d.out.fail(msg)
		}
		if ds.j < decodeErrSessions {
			errs = append(errs, e...)
		}
	}
	if len(errs) == 0 {
		return 0, fmt.Errorf("no approximate token among the first %d sessions", decodeErrSessions)
	}
	return mean(errs), nil
}

func (d *decodeRun) reportE2E(pc phaseCost) {
	d.out.cpuPerOp(ratio(float64(pc.selfCPU+pc.srvCPU)/1e6, float64(d.tokens)), "runner + server process CPU per token")
	tok := float64(d.tokens) / pc.wall.Seconds()
	g, tt := summarize(d.gaps), summarize(d.ttft)
	d.out.diag["rate_per_s"] = tok
	d.out.diag["p50_ms"] = g.P50
	d.out.diag["tail_ms"] = g.Tail
	d.out.named("decode_tok_s", tok, "tokens/s", fmt.Sprintf("%d sessions, append + step per token", decodeSessions))
	d.out.named("step_p50_ms", g.P50, "ms", fmt.Sprintf("per-session gap between tokens, n=%d", g.N))
	d.out.named("step_tail_ms", g.Tail, "ms", fmt.Sprintf("p%g, n=%d", float64(g.TailPM)/10, g.N))
	d.out.named("ttft_p50_ms", tt.P50, "ms", fmt.Sprintf("create + prefill + first token, n=%d", tt.N))
	d.out.linef("decode: %d tokens, %d sessions completed; mean decode batch %.2f, coalesced %.1f%%; cpu/token client %.3f ms server %.3f ms",
		d.tokens, len(d.done), ratio(pc.counters.DecodeOps, pc.counters.DecodeBatches),
		100*ratio(pc.counters.DecodeShared, pc.counters.DecodeOps), pc.clientMS(d.tokens), pc.serverMS(d.tokens))
}

// reportLayers joins the traced waves' client spans with the server's
// handler spans and attributes each request's engine share from a replay
// of sampled tokens through the stream kernels.
func (d *decodeRun) reportLayers(baseTok float64, pc phaseCost, spans, srvSpans []Span) error {
	out := d.out
	var sample []*op
	for j := 0; j < decodeReplayOps; j++ {
		sp := genSession(d.cfg.seed, j)
		// Within the modeled accelerator's n = 512 where the prompt allows.
		row := min(sp.prompt+sp.outLen/2, max(sp.prompt, elsasimMaxN))
		sample = append(sample, &op{ds: sp.ds, q: pickRows(sp.q, []int{row}), k: prefix(sp.k, row),
			v: prefix(sp.v, row), kind: sp.kind, thr: d.thrFor(sp.kind)})
	}
	rp, err := newReplayer(d.eng)
	if err != nil {
		return err
	}
	st := newReplayStats()
	if err := rp.replay(sample, st); err != nil {
		return err
	}
	st.layerMetrics(out.layer)
	queryNS := ratio(st.streamQueryNS, float64(st.streamQueries))
	appendNS := ratio(st.streamAppendNS, float64(st.streamAppends))

	handler := map[uint64]Span{}
	for _, s := range srvSpans {
		handler[s.Req] = s
	}
	self := selfTimes(spans)
	acct := newLayerAcct()
	handlerMS := map[string][]float64{}
	byCall := map[string]float64{} // lane time by client call
	var clientSelf, serveSelf, harness []float64
	waves := map[int]bool{}
	for _, s := range spans {
		if s.Parent < 0 {
			waves[s.ID] = true
			acct.root += float64(self[s.ID])
			acct.wall += float64(s.Dur())
			acct.addSelf("bench", float64(self[s.ID]))
			harness = append(harness, float64(self[s.ID])/1e6)
		}
	}
	for _, s := range spans {
		if s.Parent < 0 || !waves[s.Parent] {
			continue
		}
		acct.root += float64(s.Dur())
		byCall[s.Name] += float64(s.Dur())
		h, ok := handler[s.Req]
		if !ok {
			acct.addSelf("serve/client", float64(s.Dur()))
			continue
		}
		eng := appendNS * float64(d.rowsIn[s.Req])
		if s.Name == "client.step" {
			eng = queryNS * float64(d.rowsIn[s.Req])
			acct.ops += d.rowsIn[s.Req]
		}
		acct.addSelf("serve/client", float64(s.Dur()-h.Dur()))
		acct.addSelf("internal/serve "+h.Name[len("serve."):], float64(h.Dur())-eng)
		acct.addSelf(engineLayer, eng)
		clientSelf = append(clientSelf, float64(s.Dur()-h.Dur())/1e6)
		serveSelf = append(serveSelf, (float64(h.Dur())-eng)/1e6)
		handlerMS[h.Name] = append(handlerMS[h.Name], float64(h.Dur())/1e6)
	}
	if acct.ops == 0 {
		return fmt.Errorf("no traced step wave has a server span")
	}
	out.linef("root lane time is each wave's wall time; waves run on %d lanes", runtime.GOMAXPROCS(0))
	acct.report(out)
	for _, name := range []string{"client.step", "client.append", "client.prefill", "client.create", "client.close"} {
		out.linef("requests %-15s %5.1f%% of root lane time (client, server and engine)", name, 100*ratio(byCall[name], acct.root))
	}

	tok := float64(d.tokens) / pc.wall.Seconds()
	out.layer["client.cpu_ms_per_op"] = pc.clientMS(d.tokens)
	out.layer["engine_host.cpu_ms_per_op"] = pc.serverMS(d.tokens)
	out.layer["bench.gen_late_ms"] = mean(harness)
	out.layer["bench.trace_overhead"] = ratio(baseTok-tok, baseTok)
	out.named("client.self_ms", mean(clientSelf), "ms", "client call minus server handler span, per request")
	out.named("client.req_bytes", ratio(float64(pc.bytes), float64(pc.reqs)), "B", "request body bytes per request")
	out.named("client.cpu_ms_per_op", pc.clientMS(d.tokens), "ms", "runner process CPU per token")
	for _, ep := range []string{"step", "append", "create"} {
		out.named("serve.handler_ms."+ep, mean(handlerMS["serve."+ep]), "ms", fmt.Sprintf("server ServeHTTP span, n=%d", len(handlerMS["serve."+ep])))
	}
	out.named("serve.self_ms", mean(serveSelf), "ms", "handler span minus stream-kernel replay, per request")
	out.named("serve.cpu_ms_per_op", pc.serverMS(d.tokens), "ms", "server process utime+stime per token")
	out.named("serve.decode_mean_batch", ratio(pc.counters.DecodeOps, pc.counters.DecodeBatches), "queries", "elsa_serve_decode_batch_ops_total / decode_batches_total")
	out.named("serve.decode_coalesced_frac", ratio(pc.counters.DecodeShared, pc.counters.DecodeOps), "fraction", "elsa_serve_decode_coalesced_total / decode_batch_ops_total")
	out.named("bench.gen_late_ms", mean(harness), "ms", "runner time per wave outside client calls")
	out.named("bench.trace_overhead", out.layer["bench.trace_overhead"], "fraction", fmt.Sprintf("tokens/s untraced %.1f traced %.1f", baseTok, tok))
	for _, l := range st.phaseTable() {
		out.linef("%s", l)
	}
	all := append(append([]Span(nil), spans...), srvSpans...)
	path, err := writeSpans(traceDir(), fmt.Sprintf("decode-step-%d.jsonl", d.cfg.seed), all)
	if err != nil {
		return err
	}
	out.linef("spans: %d client + %d server written to %s", len(spans), len(srvSpans), path)
	d.reportE2E(pc)
	return nil
}
