package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"elsa"
	"elsa/internal/serve/cluster"
	"elsa/serve/client"
)

// heartbeatMiss is how many missed heartbeat intervals expire a dynamic
// member to gone.
const heartbeatMiss = 3

// maxHeartbeatMS is the longest heartbeat interval a join may promise:
// the expiry sweep's heartbeatMiss intervals must fit in a
// time.Duration, or the deadline wraps and the member never expires.
const maxHeartbeatMS = math.MaxInt64 / heartbeatMiss / int64(time.Millisecond)

// MaxWeight is the largest ring weight a member may join with (and
// elsaserve -weight accepts): cluster.DefaultVirtualNodes points per
// unit, so at most 16,384 points per member, and every membership
// change rebuilds the ring from all of them.
const MaxWeight = 256

// maxHeadDim and maxHashBits bound the engine a request body may ask
// for (attend, session create and import answer 400 beyond them): the
// time to build an engine grows steeply with its size, and a body picks
// it. elsa.New takes about 37 ms at 64/64, 0.17 s at 128/128 and 0.87 s
// at 256/256 on a 2-vCPU host.
const (
	maxHeadDim  = 128
	maxHashBits = 256
)

// checkEngineSize refuses an engine configuration beyond maxHeadDim or
// maxHashBits.
func checkEngineSize(opts elsa.Options) error {
	switch {
	case opts.HeadDim > maxHeadDim:
		return fmt.Errorf("head_dim must be <= %d, got %d", maxHeadDim, opts.HeadDim)
	case opts.HashBits > maxHashBits:
		return fmt.Errorf("hash_bits must be <= %d, got %d", maxHashBits, opts.HashBits)
	}
	return nil
}

// placementWalk bounds how many ring successors a placement tries before
// falling back to rotation. Deep walks only happen when nearly the whole
// fleet is unroutable, where the fallback scan is just as good.
const placementWalk = 8

// clusterView glues the control plane (membership table + hash ring) to
// the data path (worker fleet, dispatch shards, session placement). It
// owns the transitions: a join admits a worker and gives every replica
// set a lane to it; a drain pulls the member off the ring and blocks new
// sessions; expired heartbeats retire the member entirely.
type clusterView struct {
	table      *cluster.Table
	fleet      *workerSet
	pool       *enginePool
	metrics    *Metrics
	local      int // local lanes contributed to the ring
	sweepEvery time.Duration

	stop chan struct{}
	wg   sync.WaitGroup

	// ringMu guards the cached ring, rebuilt only when the table version
	// moves — placement lookups between membership changes are pure reads.
	ringMu      sync.Mutex
	ring        *cluster.Ring
	ringVersion uint64
}

func newClusterView(table *cluster.Table, fleet *workerSet, pool *enginePool, local int, sweepEvery time.Duration, m *Metrics) *clusterView {
	return &clusterView{
		table:      table,
		fleet:      fleet,
		pool:       pool,
		metrics:    m,
		local:      local,
		sweepEvery: sweepEvery,
		stop:       make(chan struct{}),
	}
}

// start launches the heartbeat-expiry sweeper.
func (cv *clusterView) start() {
	cv.wg.Add(1)
	go cv.sweepLoop()
}

// close stops the sweeper.
func (cv *clusterView) close() {
	close(cv.stop)
	cv.wg.Wait()
}

func (cv *clusterView) sweepLoop() {
	defer cv.wg.Done()
	t := time.NewTicker(cv.sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-cv.stop:
			return
		case <-t.C:
			cv.sweep()
		}
	}
}

// sweep retires members that are overdue on heartbeats AND whose probes
// are failing. Both signals are required: heartbeats alone can stall on
// a live host (a starved heartbeater, a long GC pause), and a member the
// frontend is actively confirming healthy must never be expired out of
// the ring. A genuinely dead host fails both within a few intervals.
func (cv *clusterView) sweep() {
	for _, addr := range cv.table.Overdue(heartbeatMiss) {
		w := cv.fleet.get(addr)
		if w != nil && w.isHealthy() {
			continue
		}
		if cv.table.MarkGone(addr) {
			if w != nil {
				w.setGone(true)
			}
			cv.metrics.membersExpired.add(1)
		}
	}
}

// join processes one POST /v1/cluster/join (a registration or a
// heartbeat): upsert the membership entry, admit the worker into the
// fleet, and — for a brand-new worker — give every live replica set a
// dispatch lane to it. Returns the member's state, the table version the
// upsert wrote it at, and whether this call changed membership (created
// or revived a member). The version is read inside the upsert: the probe
// launched below may change the table before the caller replies.
func (cv *clusterView) join(addr string, capacity cluster.Capacity, interval time.Duration, draining bool, incarnation uint64) (cluster.State, uint64, bool) {
	state, version, changed := cv.table.Upsert(addr, capacity, interval, draining, incarnation)
	w, created := cv.fleet.add(addr)
	if w == nil {
		// The fleet is closed: the server is shutting down. Report the
		// table's answer; nothing routes anymore anyway.
		return state, version, changed
	}
	if created {
		cv.pool.attachWorker(w)
		changed = true
	}
	if changed {
		// A created or revived member starts with a clean slate: not gone,
		// not draining, failure streak forgiven (setGone(false) does all
		// three), probed immediately below.
		w.setGone(false)
	}
	if state == cluster.StateDraining {
		w.setDraining(true)
	}
	if changed && state == cluster.StateJoining {
		// Probe off-request so the join reply is fast, but immediately:
		// activation should take one round-trip, not one probe interval.
		go cv.fleet.probeOnce(w)
	}
	return state, version, changed
}

// markDraining is the operator-initiated drain of one member (POST
// /v1/cluster/drain): the member leaves the ring, its worker stops
// taking new sessions and one-shot routing, pinned sessions keep flowing.
func (cv *clusterView) markDraining(addr string) bool {
	transitioned := cv.table.SetDraining(addr)
	if w := cv.fleet.get(addr); w != nil {
		w.setDraining(true)
	}
	if transitioned {
		cv.metrics.membersDraining.add(1)
	}
	return transitioned
}

// onProbe feeds probe outcomes into membership: the first healthy probe
// of a joining member activates it (it starts owning ring keyspace), and
// a worker reporting "draining" status — however its drain was initiated
// — is marked draining here, so even static workers drained directly
// (bypassing the frontend) stop receiving new sessions within one probe.
func (cv *clusterView) onProbe(w *worker, h *client.Health, err error) {
	if err != nil || h == nil {
		return
	}
	if h.Status == "draining" {
		if cv.table.SetDraining(w.addr) {
			cv.metrics.membersDraining.add(1)
		}
		w.setDraining(true)
		return
	}
	// A passing probe refreshes the liveness deadline too: heartbeat
	// expiry is for members that are silent AND unprobeable, not for a
	// reachable worker whose heartbeater is momentarily behind.
	cv.table.Touch(w.addr)
	if cv.table.Activate(w.addr) {
		cv.metrics.membersActivated.add(1)
	}
}

// place maps a session's key onto the fleet via the consistent-hash
// ring: the key's owner if routable, else the next routable successor in
// ring order, walking past avoid (nil avoids nothing). Local lanes sit on
// the ring as "local/<i>" members with weight 1; any of them places the
// session locally, on the set's one engine. Ring misses (empty ring,
// every successor unroutable) fall back to the legacy rotation, so a
// fleet mid-churn still places sessions wherever capacity remains.
func (cv *clusterView) place(set *replicaSet, key string, avoid *worker) (w *worker, local bool) {
	if r := cv.currentRing(); r.Len() > 0 {
		for _, member := range r.Successors(key, placementWalk) {
			if strings.HasPrefix(member, "local/") {
				return nil, true
			}
			if w := cv.fleet.get(member); w != nil && w != avoid && w.routable() {
				return w, false
			}
		}
	}
	return set.sessionTarget(avoid)
}

// currentRing returns the ring for the table's current version,
// rebuilding it only when membership actually changed.
func (cv *clusterView) currentRing() *cluster.Ring {
	version, weights := cv.table.ActiveWeights()
	cv.ringMu.Lock()
	defer cv.ringMu.Unlock()
	if cv.ring != nil && cv.ringVersion == version {
		return cv.ring
	}
	for i := 0; i < cv.local; i++ {
		weights["local/"+strconv.Itoa(i)] = 1
	}
	cv.ring = cluster.NewRing(weights, 0)
	cv.ringVersion = version
	return cv.ring
}
