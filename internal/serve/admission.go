package serve

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Class is a request's priority class. The dispatcher's weighted dequeue
// guarantees higher classes are never displaced by lower ones while
// still granting every class forward progress — the serving-layer
// analogue of bounding the work admitted per pipeline stage so one
// stalled stream cannot degrade the whole accelerator.
type Class int

const (
	// ClassInteractive is latency-sensitive traffic; it is also the
	// default when a request names no class.
	ClassInteractive Class = iota
	// ClassBatch is throughput-oriented offline traffic.
	ClassBatch
	// ClassBackground is best-effort traffic that must never starve but
	// may always be deferred behind the other classes.
	ClassBackground

	// NumClasses is the number of priority classes.
	NumClasses = 3
)

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	case ClassBackground:
		return "background"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// parseClass maps the envelope's priority field (or header) onto a
// Class. Empty selects interactive, the default class.
func parseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	case "background":
		return ClassBackground, nil
	}
	return ClassInteractive, fmt.Errorf("unknown priority %q (want interactive|batch|background)", s)
}

// maxQuotaClients soft-bounds the per-client bucket map; beyond it fully
// refilled buckets are swept before a new client is admitted.
const maxQuotaClients = 4096

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// quotas is the per-client token-bucket admission gate, keyed by the
// request envelope's client_id (or the X-Elsa-Client header). Each
// client refills at rps tokens/second up to burst; an op costs one
// token. A nil *quotas admits everything — quotas are off unless
// Config.QuotaRPS is set.
type quotas struct {
	rps   float64
	burst float64
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	buckets map[string]*bucket
}

// newQuotas builds the gate; rps <= 0 disables it (returns nil).
func newQuotas(rps, burst float64) *quotas {
	if rps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = math.Max(1, rps)
	}
	return &quotas{rps: rps, burst: burst, now: time.Now, buckets: make(map[string]*bucket)}
}

// take consumes one token for the client, reporting whether the op is
// admitted and — when it is not — how long until a token refills (the
// Retry-After the HTTP layer surfaces).
func (q *quotas) take(client string) (bool, time.Duration) {
	if q == nil {
		return true, 0
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[client]
	if b == nil {
		if len(q.buckets) >= maxQuotaClients {
			q.sweepLocked(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[client] = b
	}
	b.tokens = math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rps)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / q.rps * float64(time.Second))
}

// sweepLocked drops buckets that have fully refilled — clients idle long
// enough that forgetting them is behaviourally invisible. Callers hold
// q.mu.
func (q *quotas) sweepLocked(now time.Time) {
	for id, b := range q.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*q.rps >= q.burst {
			delete(q.buckets, id)
		}
	}
}

// clients reports how many client buckets are resident (tests/metrics).
func (q *quotas) clients() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}

// classWeights are the dispatcher's weighted-dequeue shares, indexed by
// Class. At each harvest the highest non-empty class fills freely and
// each lower class is capped at max(1, maxBatch·w/Σw) ops — held-back
// ops stay queued for the next harvest (counted as priority-preempted),
// so background work makes progress every harvest but never displaces
// interactive ops.
type classWeights [NumClasses]int

// defaultClassWeights is the 16:4:1 split used when Config.ClassWeights
// is zero.
var defaultClassWeights = classWeights{16, 4, 1}

// normalize replaces non-positive entries so every class keeps a
// guaranteed share.
func (w classWeights) normalize() classWeights {
	if w == (classWeights{}) {
		return defaultClassWeights
	}
	for c := range w {
		if w[c] <= 0 {
			w[c] = 1
		}
	}
	return w
}

// total is the weight denominator.
func (w classWeights) total() int {
	t := 0
	for _, v := range w {
		t += v
	}
	return t
}

// dispatchCap bounds how many ops of class c one dispatched batch of
// capacity maxBatch may carry when a higher-priority class is present:
// at least one (progress), at most the class's weight share.
func (w classWeights) dispatchCap(c Class, maxBatch int) int {
	return max(1, maxBatch*w[c]/w.total())
}

// queueCap bounds how many queued ops (of any class at or below c) may
// be resident before class c is refused admission, so low-priority
// floods cannot consume the whole bounded queue: interactive may fill
// it, batch is refused beyond 3/4, background beyond 1/2.
func (w classWeights) queueCap(c Class, maxQueue int) int {
	switch c {
	case ClassBatch:
		return max(1, maxQueue*3/4)
	case ClassBackground:
		return max(1, maxQueue/2)
	}
	return maxQueue
}
