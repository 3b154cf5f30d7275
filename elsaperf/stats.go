package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the tail percentiles, in per mille, that a latency
// report may use. The reported tail is the highest of them that leaves at
// least minBeyond samples above it, so a tail is never one or two stray
// samples.
var tailLadder = []int{990, 950, 900, 750, 500}

const minBeyond = 10

// tailPerMille picks the tail percentile (per mille) for n samples: the
// highest ladder entry with at least minBeyond samples beyond its rank.
// It returns 0 when even the median leaves fewer than minBeyond samples
// beyond it; callers then report the maximum.
func tailPerMille(n int) int {
	for _, pm := range tailLadder {
		if n-rankOf(pm, n) >= minBeyond {
			return pm
		}
	}
	return 0
}

// rankOf is the 1-based nearest rank of percentile pm (per mille) among n
// sorted samples.
func rankOf(pm, n int) int {
	k := (pm*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile pm (per mille) of
// sorted; pm = 0 returns the maximum.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if pm == 0 {
		return sorted[len(sorted)-1]
	}
	return sorted[rankOf(pm, len(sorted))-1]
}

// summary is a latency distribution reduced to what the benchmark reports.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailPM int // tail percentile in per mille (0 = maximum)
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pm := tailPerMille(len(s))
	return summary{N: len(s), P50: percentile(s, 500), Tail: percentile(s, pm), TailPM: pm}
}

// dueLatency is the latency of one open-loop op, timed from when it was
// due to be sent rather than from when a sender picked it up, so a
// generator or server stall is charged to every op it delayed. An op that
// was abandoned, refused or failed (ok = false) counts as missing the
// limit: its latency is at least limit.
func dueLatency(due, done time.Time, ok bool, limit time.Duration) time.Duration {
	d := done.Sub(due)
	if !ok && d < limit {
		d = limit
	}
	return d
}

// withinLimit reports whether an op counts toward goodput: answered
// correctly, and no later than limit after it was due.
func withinLimit(due, done time.Time, ok bool, limit time.Duration) bool {
	return ok && done.Sub(due) <= limit
}

// quartiles returns the first quartile, median and third quartile of vals
// with the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// cosErr is 1 − cos(a, b), the angular error of one output row.
func cosErr(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		if na == nb {
			return 0
		}
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}
