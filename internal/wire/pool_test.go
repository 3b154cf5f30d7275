package wire

import (
	"math"
	"testing"
)

// TestPoolReuse pins Get and Put: Get returns the length asked for, a
// buffer under 32 KiB is made to size and never pooled, a pooled buffer
// long enough comes back, and one too short is dropped for a new buffer
// of the length asked for.
func TestPoolReuse(t *testing.T) {
	const n = minPooled / 4 // 32 KiB of float32s
	small := FloatPool.Get(n - 1)
	if len(small) != n-1 || cap(small) != n-1 {
		t.Fatalf("Get(%d) = len %d cap %d, want a new slice of exactly that length", n-1, len(small), cap(small))
	}
	FloatPool.Put(small)
	if b := FloatPool.Get(n - 1); &b[0] == &small[0] {
		t.Error("a buffer under 32 KiB came back from the pool")
	}

	// A goroutine moved to another P between Put and Get misses its
	// P's cache, and under -race Put drops one item in four, so reuse
	// has a few tries.
	reused := false
	for try := 0; try < 10 && !reused; try++ {
		big := FloatPool.Get(2 * n)
		FloatPool.Put(big)
		got := FloatPool.Get(n)
		if len(got) != n {
			t.Fatalf("Get(%d) has length %d", n, len(got))
		}
		reused = &got[0] == &big[0]
		FloatPool.Put(got)
	}
	if !reused {
		t.Error("a long enough pooled buffer was not reused")
	}
	if longer := FloatPool.Get(4 * n); len(longer) != 4*n || cap(longer) != 4*n {
		t.Errorf("Get(%d) = len %d cap %d, want a new slice of exactly that length", 4*n, len(longer), cap(longer))
	}
	// The floor is in bytes, not elements: 32 KiB of bytes pools.
	if !BytePool.pooled(minPooled) || BytePool.pooled(minPooled-1) {
		t.Error("bodies pool by their byte size")
	}
}

// TestPoolPoisonsReleased checks PoisonReleased: every released buffer,
// pooled or not, is overwritten before it can be read again.
func TestPoolPoisonsReleased(t *testing.T) {
	defer func(was bool) { PoisonReleased = was }(PoisonReleased)
	PoisonReleased = true
	for _, n := range []int{16, minPooled} {
		body := BytePool.Get(n)
		floats := FloatPool.Get(n)
		for i := range body {
			body[i], floats[i] = 'A', 1
		}
		BytePool.Put(body)
		FloatPool.Put(floats)
		for i := range body {
			if body[i] != 0xFF || !math.IsNaN(float64(floats[i])) {
				t.Fatalf("n=%d: element %d reads %#x / %v after release, want 0xFF / NaN", n, i, body[i], floats[i])
			}
		}
	}
}
