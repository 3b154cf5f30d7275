package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the request-latency histogram bounds in seconds.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// batchSizeBuckets are the dispatched-batch-size histogram bounds.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// family is one Prometheus metric family, declared once with its name,
// type and help text. Its samples are int64 counters/gauges, float64
// gauges (float set) or fixed-bucket histograms (bounds set), optionally
// split by one label. An unlabelled family's one sample is the embedded
// series, so call sites read m.batches.add(1).
type family struct {
	name, typ, label, help string
	float                  bool
	bounds                 []float64

	mu      sync.Mutex
	byLabel map[string]*series
	*series
}

// series is one sample of a family. Updates lock the family. A labelled
// series is exported once it has been updated or seeded, so a handle
// resolved up front prints nothing until its first update.
type series struct {
	fam    *family
	seen   bool
	n      int64   // int sample, or histogram observation count
	f      float64 // float sample, or histogram sum
	counts []int64 // histogram bucket counts, +Inf last
}

func (f *family) newSeries() *series {
	s := &series{fam: f}
	if f.bounds != nil {
		s.counts = make([]int64, len(f.bounds)+1)
	}
	return s
}

// with returns the series for one label value, creating it on first use.
// Hot paths resolve their handles once and keep them.
func (f *family) with(label string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.byLabel[label]
	if !ok {
		s = f.newSeries()
		f.byLabel[label] = s
	}
	return s
}

// seedClasses exports one zero sample per priority class before its
// first update and returns the per-class handles.
func (f *family) seedClasses() (h [NumClasses]*series) {
	for c := range h {
		h[c] = f.with(Class(c).String())
		h[c].seen = true
	}
	return h
}

func (s *series) add(d int64) {
	s.fam.mu.Lock()
	s.n += d
	s.seen = true
	s.fam.mu.Unlock()
}

func (s *series) set(v int64) {
	s.fam.mu.Lock()
	s.n = v
	s.seen = true
	s.fam.mu.Unlock()
}

func (s *series) addFloat(d float64) {
	s.fam.mu.Lock()
	s.f += d
	s.seen = true
	s.fam.mu.Unlock()
}

func (s *series) setFloat(v float64) {
	s.fam.mu.Lock()
	s.f = v
	s.seen = true
	s.fam.mu.Unlock()
}

// observe records one histogram observation.
func (s *series) observe(v float64) {
	s.fam.mu.Lock()
	s.counts[sort.SearchFloat64s(s.fam.bounds, v)]++
	s.f += v
	s.n++
	s.seen = true
	s.fam.mu.Unlock()
}

// value reads an int sample (a histogram's observation count).
func (s *series) value() int64 {
	s.fam.mu.Lock()
	defer s.fam.mu.Unlock()
	return s.n
}

// values copies a labelled int family's exported samples by label value.
func (f *family) values() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.byLabel))
	for l, s := range f.byLabel {
		if s.seen {
			out[l] = s.n
		}
	}
	return out
}

// replace swaps every sample of a labelled gauge family for vals in one
// step. Only for gauges set at scrape time, which keep no handles.
func (f *family) replace(vals map[string]int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.byLabel)
	for l, v := range vals {
		s := f.newSeries()
		s.n, s.seen = v, true
		f.byLabel[l] = s
	}
}

// write renders the family: HELP and TYPE, then the unlabelled sample or
// one sample per exported label value in sorted order.
func (f *family) write(b *bytes.Buffer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	if f.series != nil {
		f.series.write(b, "")
		return
	}
	labels := make([]string, 0, len(f.byLabel))
	for l, s := range f.byLabel {
		if s.seen {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		f.byLabel[l].write(b, fmt.Sprintf("%s=%q", f.label, l))
	}
}

// write renders one series; pair is its `label="value"` text, empty for
// an unlabelled family. Ints print with %d; floats, bucket bounds and
// sums with %g.
func (s *series) write(b *bytes.Buffer, pair string) {
	f := s.fam
	set, le := "", "{le="
	if pair != "" {
		set, le = "{"+pair+"}", "{"+pair+",le="
	}
	switch {
	case f.bounds != nil:
		var cum int64
		for i, bound := range f.bounds {
			cum += s.counts[i]
			fmt.Fprintf(b, "%s_bucket%s\"%g\"} %d\n", f.name, le, bound, cum)
		}
		cum += s.counts[len(f.bounds)]
		fmt.Fprintf(b, "%s_bucket%s\"+Inf\"} %d\n", f.name, le, cum)
		fmt.Fprintf(b, "%s_sum%s %g\n%s_count%s %d\n", f.name, set, s.f, f.name, set, s.n)
	case f.float:
		fmt.Fprintf(b, "%s%s %g\n", f.name, set, s.f)
	default:
		fmt.Fprintf(b, "%s%s %d\n", f.name, set, s.n)
	}
}

// Metrics is the server's registry of metric families, rendered in
// Prometheus text format. All methods are safe for concurrent use.
type Metrics struct {
	families []*family // declaration order is exposition order

	requests, rejected, batches, batchOps, batchSize, latency       *family
	admission, preempted, classLatency, quotaClients                *family
	candFracSum, candFracCount, shardBatches, shardOps              *family
	queueDepth, classQueueDepth, classSheds, classShedRate          *family
	engines, engineEvictions, sessions, sessionsCreated             *family
	sessionEvictions, sessionTokens, sessionQueries                 *family
	sessionsSpilled, sessionsRehydrated                             *family
	sessionsMigrated, sessionsRecovered                             *family
	mirrorTokens, mirrorSeconds, mirrorFlushes, mirrorPending       *family
	decodeBatches, decodeOps, decodeCoalesced, decodeBatchSize      *family
	calibrations, thresholdLoads, thresholdCorrupt, thresholdEvicts *family
	workerHealthy, workerEjections, workerReadmissions, remoteOps   *family
	reroutes, clusterMembers, clusterVersion                        *family
	clusterJoins, clusterHeartbeats                                 *family
	membersActivated, membersDraining, membersExpired               *family

	queuedBy, shedBy, shedRateBy [NumClasses]*series
	mirrorNanos                  atomic.Int64 // exact source of mirror_seconds_total

	// Windowed shed-rate state: shedRates holds the events/s observed over
	// the last completed window, rolled forward lazily at read time so no
	// background ticker is needed. clock is injectable for tests.
	shedMu       sync.Mutex
	clock        func() time.Time
	shedWindow   time.Duration
	shedPrev     [NumClasses]int64
	shedPrevTime time.Time
	shedRates    [NumClasses]float64
}

// def declares a family; float selects %g samples, bounds a histogram.
func (m *Metrics) def(name, typ, label, help string, float bool, bounds []float64) *family {
	f := &family{name: name, typ: typ, label: label, help: help, float: float, bounds: bounds}
	if label == "" {
		f.series = f.newSeries()
	} else {
		f.byLabel = make(map[string]*series)
	}
	m.families = append(m.families, f)
	return f
}

func (m *Metrics) counter(name, label, help string) *family {
	return m.def(name, "counter", label, help, false, nil)
}

func (m *Metrics) gauge(name, label, help string) *family {
	return m.def(name, "gauge", label, help, false, nil)
}

func (m *Metrics) histogram(name, label, help string, bounds []float64) *family {
	return m.def(name, "histogram", label, help, false, bounds)
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{clock: time.Now, shedWindow: time.Second}
	m.requests = m.counter("elsa_serve_requests_total", "code", "Finished /v1/attend requests by HTTP status.")
	m.rejected = m.counter("elsa_serve_rejected_total", "reason", "Requests refused before attention ran, by reason.")
	m.batches = m.counter("elsa_serve_batches_total", "", "Micro-batches dispatched to the attention engine.")
	m.batchOps = m.counter("elsa_serve_batch_ops_total", "", "Attention ops dispatched across all micro-batches.")
	m.batchSize = m.histogram("elsa_serve_batch_size", "", "Ops coalesced per dispatched micro-batch.", batchSizeBuckets)
	m.latency = m.histogram("elsa_serve_request_seconds", "", "Request wall time for /v1/attend.", latencyBuckets)
	m.admission = m.counter("elsa_serve_admission_total", "decision", "Admission-control decisions for /v1/attend.")
	// Ops left queued only because the batch was full are not counted.
	m.preempted = m.counter("elsa_serve_preempted_total", "class", "Ops a class weight cap held back at a harvest, by class.")
	m.classLatency = m.histogram("elsa_serve_class_request_seconds", "class", "Request wall time for /v1/attend, by priority class.", latencyBuckets)
	m.quotaClients = m.gauge("elsa_serve_quota_clients", "", "Resident per-client quota buckets.")
	m.candFracSum = m.def("elsa_serve_candidate_fraction_sum", "counter", "", "Summed admitted-candidate fractions over served ops.", true, nil)
	m.candFracCount = m.counter("elsa_serve_candidate_fraction_count", "", "Served ops whose candidate fractions are summed.")
	m.shardBatches = m.counter("elsa_serve_shard_batches_total", "shard", "Micro-batches executed per replica shard.")
	m.shardOps = m.counter("elsa_serve_shard_ops_total", "shard", "Attention ops executed per replica shard.")
	m.queueDepth = m.gauge("elsa_serve_queue_depth", "", "Requests currently queued in the micro-batch dispatcher.")
	m.classQueueDepth = m.gauge("elsa_serve_class_queue_depth", "class", "Requests currently queued, by priority class.")
	m.classSheds = m.counter("elsa_serve_class_sheds_total", "class", "Ops refused before dispatch, by priority class.")
	m.classShedRate = m.def("elsa_serve_class_shed_rate", "gauge", "class", "Ops shed per second over the last window, by priority class.", true, nil)
	m.engines = m.gauge("elsa_serve_engines", "", "Replica sets resident in the pool.")
	m.engineEvictions = m.counter("elsa_serve_engine_evictions_total", "", "Replica sets evicted from the bounded pool.")
	m.sessions = m.gauge("elsa_serve_sessions", "", "Live autoregressive decode sessions.")
	m.sessionsCreated = m.counter("elsa_serve_sessions_created_total", "", "Decode sessions ever created.")
	m.sessionEvictions = m.counter("elsa_serve_session_evictions_total", "reason", "Sessions removed from the registry, by reason.")
	m.sessionTokens = m.counter("elsa_serve_session_tokens_total", "", "Tokens appended across all sessions.")
	m.sessionQueries = m.counter("elsa_serve_session_queries_total", "", "Decode queries served across all sessions.")
	m.sessionsSpilled = m.counter("elsa_serve_sessions_spilled_total", "", "Idle sessions spilled to the state directory.")
	m.sessionsRehydrated = m.counter("elsa_serve_sessions_rehydrated_total", "", "Spilled sessions rehydrated on demand.")
	m.sessionsMigrated = m.counter("elsa_serve_sessions_migrated_total", "", "Sessions live-migrated between workers.")
	m.sessionsRecovered = m.counter("elsa_serve_sessions_recovered_total", "", "Sessions re-placed from portable state after a worker loss.")
	m.mirrorTokens = m.counter("elsa_serve_mirror_tokens_total", "", "Tokens replayed onto local shadow mirrors.")
	m.mirrorSeconds = m.def("elsa_serve_mirror_seconds_total", "counter", "", "Wall time spent replaying shadow-mirror appends.", true, nil)
	m.mirrorFlushes = m.counter("elsa_serve_mirror_flushes_total", "", "Shadow-mirror replay batches flushed.")
	m.mirrorPending = m.gauge("elsa_serve_mirror_pending", "", "Mirror append chunks accepted remotely but not yet replayed.")
	m.decodeBatches = m.counter("elsa_serve_decode_batches_total", "", "Decode batches dispatched to lanes.")
	m.decodeOps = m.counter("elsa_serve_decode_batch_ops_total", "", "Session queries dispatched across all decode batches.")
	m.decodeCoalesced = m.counter("elsa_serve_decode_coalesced_total", "", "Session queries that shared a decode batch with another session.")
	m.decodeBatchSize = m.histogram("elsa_serve_decode_batch_size", "", "Session queries coalesced per decode batch.", batchSizeBuckets)
	m.calibrations = m.counter("elsa_serve_calibrations_total", "", "Thresholds calibrated online.")
	m.thresholdLoads = m.counter("elsa_serve_threshold_loads_total", "", "Thresholds restored from the state directory.")
	m.thresholdCorrupt = m.counter("elsa_serve_threshold_corrupt_total", "", "Corrupt state-dir threshold entries discarded at load.")
	m.thresholdEvicts = m.counter("elsa_serve_threshold_evictions_total", "", "State-dir threshold files removed by the on-disk cap.")
	m.workerHealthy = m.gauge("elsa_serve_worker_healthy", "worker", "Remote worker admission state (1 routed, 0 ejected).")
	m.workerEjections = m.counter("elsa_serve_worker_ejections_total", "worker", "Workers ejected from routing after consecutive failures.")
	m.workerReadmissions = m.counter("elsa_serve_worker_readmissions_total", "worker", "Ejected workers re-admitted after recovery.")
	m.remoteOps = m.counter("elsa_serve_remote_ops_total", "worker", "Attend ops dispatched to remote workers over the wire.")
	m.reroutes = m.counter("elsa_serve_reroutes_total", "", "Ops re-executed on a sibling shard after a worker failure.")
	m.clusterMembers = m.gauge("elsa_serve_cluster_members", "state", "Fleet members by membership state.")
	m.clusterVersion = m.gauge("elsa_serve_cluster_version", "", "The membership table's current version.")
	m.clusterJoins = m.counter("elsa_serve_cluster_joins_total", "", "Join requests that created or revived a member.")
	m.clusterHeartbeats = m.counter("elsa_serve_cluster_heartbeats_total", "", "Join requests that refreshed an existing member.")
	m.membersActivated = m.counter("elsa_serve_cluster_activated_total", "", "Members promoted joining → active.")
	m.membersDraining = m.counter("elsa_serve_cluster_draining_total", "", "Members marked draining.")
	m.membersExpired = m.counter("elsa_serve_cluster_expired_total", "", "Members expired to gone by missed heartbeats.")

	m.queuedBy = m.classQueueDepth.seedClasses()
	m.shedBy = m.classSheds.seedClasses()
	m.shedRateBy = m.classShedRate.seedClasses()
	return m
}

// shardStats are one replica shard's metric handles. Shards are labelled
// by replica index, so the same index aggregates across replica sets —
// shard fairness is a per-fleet property.
type shardStats struct{ batches, ops *series }

func (m *Metrics) shard(id int) shardStats {
	l := strconv.Itoa(id)
	return shardStats{m.shardBatches.with(l), m.shardOps.with(l)}
}

// workerStats are one remote worker's metric handles.
type workerStats struct{ healthy, ejections, readmissions, remoteOps *series }

func (m *Metrics) worker(addr string) workerStats {
	return workerStats{m.workerHealthy.with(addr), m.workerEjections.with(addr),
		m.workerReadmissions.with(addr), m.remoteOps.with(addr)}
}

// AdmissionDecisions returns a copy of the admission decision counters.
func (m *Metrics) AdmissionDecisions() map[string]int64 { return m.admission.values() }

// QueueDepthsByClass returns the current per-class queue occupancy keyed
// by class name — the scale signal GET /v1/cluster surfaces.
func (m *Metrics) QueueDepthsByClass() map[string]int64 { return m.classQueueDepth.values() }

// ShedsByClass returns the cumulative shed counts keyed by class name.
func (m *Metrics) ShedsByClass() map[string]int64 { return m.classSheds.values() }

// DecodeCoalesced reports how many session queries shared a decode
// batch with at least one other session's query.
func (m *Metrics) DecodeCoalesced() int64 { return m.decodeCoalesced.value() }

// MeanBatchSize returns ops-per-dispatched-batch so far (0 before any
// dispatch).
func (m *Metrics) MeanBatchSize() float64 { return mean(m.batchOps, m.batches) }

// MeanDecodeBatchSize returns queries-per-decode-batch so far (0 before
// any decode dispatch).
func (m *Metrics) MeanDecodeBatchSize() float64 { return mean(m.decodeOps, m.decodeBatches) }

func mean(total, count *family) float64 {
	n := count.value()
	if n == 0 {
		return 0
	}
	return float64(total.value()) / float64(n)
}

// MirrorReplay reports the cumulative tokens replayed onto shadow mirrors
// and the wall nanoseconds spent replaying them.
func (m *Metrics) MirrorReplay() (tokens, nanos int64) {
	return m.mirrorTokens.value(), m.mirrorNanos.Load()
}

// rollShedRates rolls the shed-rate window forward if at least one full
// window has elapsed and returns the last completed window's rates. The
// first call seeds the window and reports zeros — a controller's
// hysteresis absorbs the one-poll warm-up.
func (m *Metrics) rollShedRates() [NumClasses]float64 {
	m.shedMu.Lock()
	defer m.shedMu.Unlock()
	var sheds [NumClasses]int64
	for c, s := range m.shedBy {
		sheds[c] = s.value()
	}
	now := m.clock()
	if m.shedPrevTime.IsZero() {
		m.shedPrevTime = now
		m.shedPrev = sheds
	} else if elapsed := now.Sub(m.shedPrevTime); elapsed >= m.shedWindow {
		secs := elapsed.Seconds()
		for c := range sheds {
			m.shedRates[c] = float64(sheds[c]-m.shedPrev[c]) / secs
		}
		m.shedPrev = sheds
		m.shedPrevTime = now
	}
	return m.shedRates
}

// ShedRates returns the per-class shed rate in events/s over the last
// completed window (~1s), keyed by class name. Unlike ShedsByClass this is
// a rate, not a lifetime counter, so a controller's hysteresis bands act
// on current pressure rather than whole-lifetime averages.
func (m *Metrics) ShedRates() map[string]float64 {
	out := make(map[string]float64, NumClasses)
	for c, r := range m.rollShedRates() {
		out[Class(c).String()] = r
	}
	return out
}

// WriteTo renders every family in declaration order in Prometheus text
// exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	for c, r := range m.rollShedRates() {
		m.shedRateBy[c].setFloat(r)
	}
	m.mirrorSeconds.setFloat(float64(m.mirrorNanos.Load()) / 1e9)
	var b bytes.Buffer
	for _, f := range m.families {
		f.write(&b)
	}
	return b.WriteTo(w)
}
