package wire

import (
	"math"
	"sync"
	"unsafe"
)

// PoisonReleased makes every Put overwrite the buffer before it is
// pooled: BytePool's with 0xFF (neither base64 nor JSON text),
// FloatPool's with NaN bits. A read after release then shows up as a
// refused body, a refused row or a wrong answer instead of reading
// whatever the next owner wrote. Tests switch it on in TestMain, before
// any buffer is taken; nothing else should.
var PoisonReleased bool

// The pools keep buffers of minPooled bytes or more: from 32 KiB up the
// runtime gives each allocation a span of its own, zeroed on allocation
// and swept after, so reuse saves the zeroing and the GC cycles those
// bytes drive. Smaller buffers come from the size-class allocator, which
// a pool round trip does not beat; Get makes them and Put drops them.
const minPooled = 32 << 10

// Pool recycles large slices of one element type. It keeps one set of
// buffers whatever their size: a Get takes one, and if that one is too
// short drops it and makes a buffer of exactly the length asked for. So
// the pool drifts toward the largest sizes the traffic needs and holds
// about as many buffers as are in use at once. Kept per size class
// instead, each class would hold its own, several times the memory for
// traffic of mixed sizes. The zero value is not usable; the package's
// BytePool and FloatPool are the pools.
type Pool[T any] struct {
	poison func([]T) // runs on every Put when PoisonReleased is set
	pool   sync.Pool // of *[]T
}

// BytePool pools request bodies, read and written.
var BytePool = &Pool[byte]{poison: func(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}}

// FloatPool pools the float32 backings of decoded matrices.
var FloatPool = &Pool[float32]{poison: func(b []float32) {
	nan := math.Float32frombits(0x7FC0DEAD)
	for i := range b {
		b[i] = nan
	}
}}

// pooled reports whether n elements come to minPooled bytes or more.
func (p *Pool[T]) pooled(n int) bool {
	var zero T
	return uint64(n)*uint64(unsafe.Sizeof(zero)) >= minPooled
}

// Get returns a slice of length n whose contents are unspecified: a
// pooled one when n elements come to 32 KiB or more and the pool holds
// one long enough, else a new one.
func (p *Pool[T]) Get(n int) []T {
	if p.pooled(n) {
		if b, ok := p.pool.Get().(*[]T); ok && cap(*b) >= n {
			return (*b)[:n]
		}
	}
	return make([]T, n)
}

// Put releases b, which its owner must not touch again, to the pool. A
// slice under 32 KiB is dropped, so every buffer Get returned may go
// back through Put. Filing one boxes its slice header: one small
// allocation, as many as the make of an unpooled buffer costs.
func (p *Pool[T]) Put(b []T) {
	b = b[:cap(b)]
	if PoisonReleased && p.poison != nil {
		p.poison(b)
	}
	if p.pooled(len(b)) {
		box := new([]T)
		*box = b
		p.pool.Put(box)
	}
}
