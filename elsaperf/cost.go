package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"
)

// phaseCost measures what one timed phase cost each process: CPU time
// (this process from getrusage, the server child from /proc), the server's
// /v1/metrics counters, and the client transport's requests and bytes.
type phaseCost struct {
	start    time.Time
	wall     time.Duration
	selfCPU  time.Duration
	srvCPU   time.Duration
	counters serveCounters
	reqs     int64
	bytes    int64

	self0, srv0   time.Duration
	reqs0, bytes0 int64
	prom0         promSamples
}

// startCost snapshots the counters; srv and ct may be nil (no server).
func startCost(srv *child, hc *http.Client, ct *countingTransport) (phaseCost, error) {
	pc := phaseCost{}
	if srv != nil {
		var err error
		if pc.prom0, err = srv.metrics(hc); err != nil {
			return pc, fmt.Errorf("reading /v1/metrics: %w", err)
		}
		if pc.srv0, err = procCPU(srv.pid); err != nil {
			return pc, err
		}
	}
	if ct != nil {
		pc.reqs0, pc.bytes0 = ct.reqs.Load(), ct.bytes.Load()
	}
	pc.self0 = selfCPU()
	pc.start = time.Now()
	return pc, nil
}

// finish takes the deltas since startCost.
func (pc *phaseCost) finish(srv *child, hc *http.Client, ct *countingTransport) error {
	pc.wall = time.Since(pc.start)
	pc.selfCPU = selfCPU() - pc.self0
	if ct != nil {
		pc.reqs, pc.bytes = ct.reqs.Load()-pc.reqs0, ct.bytes.Load()-pc.bytes0
	}
	if srv == nil {
		return nil
	}
	cpu, err := procCPU(srv.pid)
	if err != nil {
		return err
	}
	pc.srvCPU = cpu - pc.srv0
	prom, err := srv.metrics(hc)
	if err != nil {
		return fmt.Errorf("reading /v1/metrics: %w", err)
	}
	pc.counters = readServeCounters(prom.delta(pc.prom0))
	return nil
}

func (pc phaseCost) clientMS(ops int) float64 {
	return ratio(float64(pc.selfCPU)/1e6, float64(ops))
}

func (pc phaseCost) serverMS(ops int) float64 {
	return ratio(float64(pc.srvCPU)/1e6, float64(ops))
}

// add sums two phases' costs.
func (pc phaseCost) add(o phaseCost) phaseCost {
	pc.wall += o.wall
	pc.selfCPU += o.selfCPU
	pc.srvCPU += o.srvCPU
	pc.reqs += o.reqs
	pc.bytes += o.bytes
	c, d := &pc.counters, o.counters
	c.Batches += d.Batches
	c.BatchOps += d.BatchOps
	c.Admitted += d.Admitted
	c.Shed += d.Shed
	c.DecodeBatches += d.DecodeBatches
	c.DecodeOps += d.DecodeOps
	c.DecodeShared += d.DecodeShared
	return pc
}

// engineLayer is the layer whose self time is the attention engine's.
const engineLayer = "internal/attention"

// layerAcct attributes root spans' time to layers by self time. Each op
// adds its root span's lane time (its wall time, with parallel children
// counted once per lane) and its layers' self times; when every nested
// measurement is consistent the two sums agree.
type layerAcct struct {
	self map[string]float64 // ns
	root float64            // ns of root lane time
	wall float64            // ns of root wall time
	ops  int
}

func newLayerAcct() *layerAcct { return &layerAcct{self: map[string]float64{}} }

// addSelf adds ns to layer; negative self time (a child measured longer
// than its parent) is clamped to zero, which shows as a reconciliation
// gap.
func (l *layerAcct) addSelf(layer string, ns float64) {
	l.self[layer] += math.Max(0, ns)
}

// report prints each layer's self time per op and share, the
// reconciliation against the root spans, and sets the layers.* metrics.
func (l *layerAcct) report(out *runOut) {
	var total, outer float64
	names := make([]string, 0, len(l.self))
	for n, v := range l.self {
		names = append(names, n)
		total += v
		if n != engineLayer && n != "bench" {
			outer += v
		}
	}
	sort.Strings(names)
	for _, n := range names {
		out.linef("layer %-20s self %9.4f ms/op  %5.1f%% of self time", n, l.self[n]/1e6/float64(max(l.ops, 1)), 100*ratio(l.self[n], total))
	}
	gap := ratio(total-l.root, l.root)
	flag := "ok"
	if math.Abs(gap) > 0.10 {
		flag = "GAP OVER 10%"
	}
	out.linef("reconcile: layer self times sum to %.1f ms against %.1f ms of root lane time (%.1f ms wall) over %d ops: gap %+.1f%% %s",
		total/1e6, l.root/1e6, l.wall/1e6, l.ops, 100*gap, flag)
	out.layer["layers.outer_self_ms"] = outer / 1e6 / float64(max(l.ops, 1))
	out.layer["layers.engine_self_ms"] = l.self[engineLayer] / 1e6 / float64(max(l.ops, 1))
	out.layer["layers.engine_share"] = ratio(l.self[engineLayer], total)
	out.diag["recon_gap"] = gap
}
