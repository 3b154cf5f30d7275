package elsasim

import (
	"container/heap"
	"fmt"
)

// Fleet models a set of replicated ELSA accelerators exploiting batch-level
// parallelism (§IV-D: "the whole ELSA accelerators ... can be replicated
// to exploit batch-level parallelism"; the paper's evaluation uses twelve).
// Each self-attention operation runs entirely on one accelerator; the
// fleet dispatches queued operations to the earliest-available unit.
type Fleet struct {
	// Size is the number of accelerators (paper: 12).
	Size int
	// Config is the per-accelerator configuration.
	Config Config
}

// NewFleet builds a fleet of identical accelerators.
func NewFleet(size int, cfg Config) (*Fleet, error) {
	if size < 1 {
		return nil, fmt.Errorf("elsasim: fleet needs at least one accelerator, got %d", size)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Fleet{Size: size, Config: cfg}, nil
}

// Schedule is the outcome of dispatching a batch of operations.
type Schedule struct {
	// MakespanCycles is when the last accelerator finishes.
	MakespanCycles int64
	// TotalWorkCycles is the sum of all operation durations.
	TotalWorkCycles int64
	// PerAccelerator lists each unit's busy cycles.
	PerAccelerator []int64
	// Assignments maps each operation (by input order) to its
	// accelerator.
	Assignments []int
}

// Utilization is TotalWork / (Size · Makespan) — how evenly the batch
// filled the fleet.
func (s Schedule) Utilization(size int) float64 {
	if s.MakespanCycles == 0 || size == 0 {
		return 0
	}
	return float64(s.TotalWorkCycles) / (float64(size) * float64(s.MakespanCycles))
}

// Throughput converts the schedule into operations per second at the given
// clock.
func (s Schedule) Throughput(ops int, freqHz float64) float64 {
	if s.MakespanCycles == 0 {
		return 0
	}
	return float64(ops) / (float64(s.MakespanCycles) / freqHz)
}

// accelHeap orders accelerators by next-free time (then index, for
// determinism).
type accelHeap []accelState

type accelState struct {
	free int64
	idx  int
}

func (h accelHeap) Len() int { return len(h) }
func (h accelHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].idx < h[j].idx
}
func (h accelHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *accelHeap) Push(x any)   { *h = append(*h, x.(accelState)) }
func (h *accelHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Dispatch assigns operations (given by their cycle counts, e.g.
// Result.TotalCycles() from per-op simulations) to accelerators
// earliest-available-first, in input order — the behaviour of a host
// feeding a batch of attention ops to the fleet.
func (f *Fleet) Dispatch(opCycles []int64) (Schedule, error) {
	for i, c := range opCycles {
		if c < 0 {
			return Schedule{}, fmt.Errorf("elsasim: op %d has negative duration %d", i, c)
		}
	}
	h := make(accelHeap, f.Size)
	for i := range h {
		h[i] = accelState{free: 0, idx: i}
	}
	heap.Init(&h)
	sched := Schedule{
		PerAccelerator: make([]int64, f.Size),
		Assignments:    make([]int, len(opCycles)),
	}
	for i, c := range opCycles {
		a := heap.Pop(&h).(accelState)
		sched.Assignments[i] = a.idx
		sched.PerAccelerator[a.idx] += c
		sched.TotalWorkCycles += c
		a.free += c
		if a.free > sched.MakespanCycles {
			sched.MakespanCycles = a.free
		}
		heap.Push(&h, a)
	}
	return sched, nil
}
