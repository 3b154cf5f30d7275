// Package serve is the long-running attention-serving subsystem: an
// HTTP/JSON front end over the public elsa.Engine with a shard-aware
// micro-batching dispatcher, replicated engines per configuration, a
// session registry for autoregressive decode, bounded queueing with
// backpressure, and Prometheus-format metrics. It is the software
// analogue of the paper's batch-level parallelism across replicated
// accelerator modules (§IV-D): each of a configuration's engine replicas
// takes the next batch as soon as it is free, and requests that arrive
// while every replica is busy coalesce into that batch, the way
// SimulateBatch dispatches ops across a 12-unit fleet.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"elsa"
)

// normalizeOptions resolves the defaults elsa.New would apply so that
// equivalent requests map to the same pool key, and defaults the head
// dimension from the request's own vectors when unset.
func normalizeOptions(opts elsa.Options, queryWidth int) elsa.Options {
	if opts.HeadDim == 0 {
		opts.HeadDim = queryWidth
	}
	if opts.HeadDim == 0 {
		opts.HeadDim = 64
	}
	if opts.HashBits == 0 {
		opts.HashBits = opts.HeadDim
	}
	if opts.Hardware == (elsa.Hardware{}) {
		opts.Hardware = elsa.DefaultHardware()
	}
	return opts
}

// replicaSet is one pooled configuration's engine fleet: R engines built
// from the same resolved Options (replica 0 via elsa.New, the rest
// restored from its snapshot, so all replicas hash and attend
// bit-identically) each fronted by a local dispatch shard with its own
// queue, plus one remote shard per configured worker. Remote workers
// build their engines deterministically from the same wire options, so
// any shard — local or remote — can serve any micro-batch for the key
// without affecting results. engines[0] always exists (even at zero local
// replicas) because calibration and local sessions run on it.
type replicaSet struct {
	opts  elsa.Options
	ready chan struct{} // closed once engines/err are set
	err   error

	engines []*elsa.Engine
	local   int // the first local shards are in-process replicas

	// shardsv holds the immutable []*shard snapshot — local lanes first,
	// then one per worker. Cluster joins append a lane by storing a new
	// snapshot under the pool lock; the dispatcher's readers (pickLane,
	// canRun, estimateWait) load it without that lock, so membership
	// churn never blocks the hot path.
	shardsv atomic.Value

	// rr is the round-robin cursor that rotates lane choice and spreads
	// session streams across replicas and workers.
	rr atomic.Uint64

	// oneshot and decode are the set's class queues, one per kind: ops
	// wait there while every eligible lane is busy. dispatcher.mu guards
	// both.
	oneshot, decode classQueue
}

// queue returns the set's class queue for one kind.
func (s *replicaSet) queue(decode bool) *classQueue {
	if decode {
		return &s.decode
	}
	return &s.oneshot
}

// shards returns the current shard snapshot (nil while building or after
// a failed build).
func (s *replicaSet) shards() []*shard {
	v, _ := s.shardsv.Load().([]*shard)
	return v
}

// remoteWorkers lists the workers this set currently has lanes for, in
// lane order.
func (s *replicaSet) remoteWorkers() []*worker {
	shards := s.shards()
	ws := make([]*worker, 0, len(shards)-s.local)
	for _, sh := range shards {
		if rb, ok := sh.backend.(*remoteBackend); ok {
			ws = append(ws, rb.w)
		}
	}
	return ws
}

// eligible reports whether lane sh may run a batch of the given kind:
// its backend is available, and a decode batch runs on a remote lane only
// in a float-mode set. Local lanes execute decode directly on the
// sessions' stream state — the bit-identical path. Float-mode sets may
// offload decode to a worker (the wire round-trips float32 exactly);
// quantized sets never do, because a quantized worker re-quantizes key
// norms on ingest where the stream stored them raw, and the divergence
// would break decode's bit-identity guarantee.
func (s *replicaSet) eligible(sh *shard, decode bool) bool {
	return sh.backend.available() && (!decode || sh.id < s.local || !s.opts.Quantized)
}

// pickLane chooses an eligible lane other than skip for a batch of the
// given kind, rotating the starting lane so an idle fleet still uses
// every lane. An idle lane wins over a busy one, and for a decode batch a
// local lane over a remote one; the caller dispatches only to an idle
// pick. Returns nil when no lane qualifies. Callers hold dispatcher.mu.
func (s *replicaSet) pickLane(decode bool, skip *shard) *shard {
	shards := s.shards()
	if len(shards) == 0 {
		return nil
	}
	start := int(s.rr.Add(1)) % len(shards)
	var best *shard
	bestRank := 0
	for i := range shards {
		sh := shards[(start+i)%len(shards)]
		if sh == skip || !s.eligible(sh, decode) {
			continue
		}
		rank := 0
		if sh.busy {
			rank += 2
		}
		if decode && sh.id >= s.local {
			rank++
		}
		if best == nil || rank < bestRank {
			best, bestRank = sh, rank
		}
	}
	return best
}

// canRun reports whether any lane may run a batch of the given kind.
func (s *replicaSet) canRun(decode bool) bool {
	for _, sh := range s.shards() {
		if s.eligible(sh, decode) {
			return true
		}
	}
	return false
}

// anyBusy reports whether some lane holds a batch, whose finish will
// harvest again. Callers hold dispatcher.mu.
func (s *replicaSet) anyBusy() bool {
	for _, sh := range s.shards() {
		if sh.busy {
			return true
		}
	}
	return false
}

// sessionTarget picks where a new decode session lives: a local engine
// replica or a routable remote worker, rotating so long-lived sessions
// also spread across the fleet. It is the placement fallback when the
// consistent-hash ring has no members to offer. Exactly one return is
// non-nil; both nil means nothing is available.
func (s *replicaSet) sessionTarget() (*elsa.Engine, *worker) {
	workers := s.remoteWorkers()
	n := s.local + len(workers)
	if n == 0 {
		return nil, nil
	}
	start := int(s.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		k := (start + i) % n
		if k < s.local {
			return s.engines[k], nil
		}
		if w := workers[k-s.local]; w.routable() {
			return nil, w
		}
	}
	return nil, nil
}

// enginePool caches replica sets keyed by their resolved Options
// (HeadDim, HashBits, Seed, Quantized, Scale, Hardware), so
// differently-configured requests reuse engines instead of re-running the
// projection draw and θ_bias calibration in elsa.New on every request.
// The pool is bounded: beyond maxEntries the least-recently-used set is
// evicted (its shards keep draining already-dispatched batches and are
// closed with the pool).
type enginePool struct {
	replicas   int
	maxEntries int
	disp       *dispatcher
	fleet      *workerSet
	metrics    *Metrics

	mu      sync.Mutex
	closed  bool                           // no more shards may start
	entries map[elsa.Options]*list.Element // value: *replicaSet
	lru     *list.List                     // front = most recently used
	retired []*replicaSet                  // evicted sets, drained at close
}

func newEnginePool(replicas, maxEntries int, disp *dispatcher, fleet *workerSet, m *Metrics) *enginePool {
	return &enginePool{
		replicas:   replicas,
		maxEntries: maxEntries,
		disp:       disp,
		fleet:      fleet,
		metrics:    m,
		entries:    make(map[elsa.Options]*list.Element),
		lru:        list.New(),
	}
}

// get returns the replica set for opts, building it on first use.
// Construction happens outside the pool lock; concurrent requests for the
// same key wait on the builder instead of racing duplicate elsa.New
// calls. A failed construction is removed from the pool once its error is
// delivered, so a transiently-bad key does not occupy a slot forever.
func (p *enginePool) get(opts elsa.Options) (*replicaSet, error) {
	p.mu.Lock()
	if el, ok := p.entries[opts]; ok {
		p.lru.MoveToFront(el)
		set := el.Value.(*replicaSet)
		p.mu.Unlock()
		<-set.ready
		if set.err != nil {
			return nil, set.err
		}
		return set, nil
	}
	for len(p.entries) >= p.maxEntries {
		p.evictLRULocked()
	}
	set := &replicaSet{opts: opts, ready: make(chan struct{})}
	p.entries[opts] = p.lru.PushFront(set)
	p.mu.Unlock()

	set.engines, set.err = p.buildReplicas(opts)
	if set.err == nil {
		// The fleet snapshot, the shard snapshot, and the ready close all
		// happen under the pool lock: attachWorker serializes against this
		// block, so a worker joining concurrently with a build is either in
		// the snapshot or attached afterwards — never lost, never doubled.
		p.mu.Lock()
		set.local = p.replicas
		workers := p.fleet.snapshot()
		shards := make([]*shard, 0, set.local+len(workers))
		for i := 0; i < set.local; i++ {
			shards = append(shards, newShard(i, set, &localBackend{eng: set.engines[i], workers: p.disp.workers}, p.metrics))
		}
		for k, w := range workers {
			shards = append(shards, newShard(set.local+k, set, &remoteBackend{w: w, opts: opts}, p.metrics))
		}
		set.shardsv.Store(shards)
		for _, sh := range shards {
			p.disp.startShard(sh)
		}
		close(set.ready)
		p.mu.Unlock()
	} else {
		// Drop the failed entry so the next request retries construction
		// instead of hitting a cached error occupying a pool slot.
		p.mu.Lock()
		if el, ok := p.entries[opts]; ok && el.Value.(*replicaSet) == set {
			p.lru.Remove(el)
			delete(p.entries, opts)
		}
		p.mu.Unlock()
		close(set.ready)
	}
	if set.err != nil {
		return nil, set.err
	}
	return set, nil
}

// attachWorker gives every live replica set a dispatch lane to a newly
// joined worker, so it starts receiving micro-batches without a frontend
// restart. Sets still building are skipped: their build snapshots the
// fleet under the same lock and will include the worker. Retired sets
// are skipped too — they only drain.
func (p *enginePool) attachWorker(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for _, el := range p.entries {
		set := el.Value.(*replicaSet)
		select {
		case <-set.ready:
		default:
			continue
		}
		if set.err != nil {
			continue
		}
		shards := set.shards()
		already := false
		for _, sh := range shards {
			if rb, ok := sh.backend.(*remoteBackend); ok && rb.w == w {
				already = true
				break
			}
		}
		if already {
			continue
		}
		sh := newShard(len(shards), set, &remoteBackend{w: w, opts: set.opts}, p.metrics)
		next := make([]*shard, len(shards), len(shards)+1)
		copy(next, shards)
		set.shardsv.Store(append(next, sh))
		p.disp.startShard(sh)
	}
}

// buildReplicas constructs the local engines: replica 0 pays the
// projection draw and θ_bias calibration once, the rest restore from its
// snapshot for bit-identical behaviour at a fraction of the cost. At
// zero local replicas (a pure dispatch frontend) one engine is still
// built: threshold calibration and locally-hosted sessions need it.
func (p *enginePool) buildReplicas(opts elsa.Options) ([]*elsa.Engine, error) {
	first, err := elsa.New(opts)
	if err != nil {
		return nil, err
	}
	engines := make([]*elsa.Engine, max(1, p.replicas))
	engines[0] = first
	snap := first.Snapshot()
	for r := 1; r < len(engines); r++ {
		if engines[r], err = elsa.Restore(snap); err != nil {
			return nil, err
		}
	}
	return engines, nil
}

// evictLRULocked retires the least-recently-used set. Its shards stay
// alive so batches already routed to them still complete; closeShards
// shuts them down with the pool. Callers hold p.mu.
func (p *enginePool) evictLRULocked() {
	back := p.lru.Back()
	if back == nil {
		return
	}
	set := back.Value.(*replicaSet)
	p.lru.Remove(back)
	delete(p.entries, set.opts)
	p.retired = append(p.retired, set)
	p.metrics.engineEvictions.add(1)
}

// size reports how many replica sets are resident.
func (p *enginePool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// closeShards closes every shard queue — live and retired — so the shard
// loops exit, and bars attachWorker from starting new lanes afterwards.
// Call only after the dispatcher has drained (no batch will be enqueued
// again).
func (p *enginePool) closeShards() {
	p.mu.Lock()
	p.closed = true
	sets := make([]*replicaSet, 0, len(p.entries)+len(p.retired))
	for _, el := range p.entries {
		sets = append(sets, el.Value.(*replicaSet))
	}
	sets = append(sets, p.retired...)
	p.mu.Unlock()
	for _, set := range sets {
		<-set.ready
		for _, sh := range set.shards() {
			close(sh.queue)
		}
	}
}
