// Package ring provides Ring, the fixed-capacity history buffer behind
// every bounded single-writer history in the stack: the health plane's
// rollup tiers, exemplar rings and alert journal, the flight recorder's
// recent-dump ring, and the gateway's per-tag link windows. The flight
// recorder's span shards keep their own ring: they have concurrent
// writers, an atomic head and cache-line padding.
package ring

// Ring is a fixed-capacity ring buffer. New allocates its storage once,
// so Push never allocates; once the ring is full, each Push overwrites
// the oldest element. A Ring is not safe for concurrent use.
type Ring[T any] struct {
	buf  []T
	head int // next write slot
	n    int // stored elements
}

// New returns an empty ring that holds up to capacity elements. The
// capacity must be positive.
func New[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest element when the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len returns the number of stored elements, at most the capacity.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th stored element, oldest first, for i in [0, Len).
func (r *Ring[T]) At(i int) T {
	i += r.head - r.n
	if i < 0 {
		i += len(r.buf)
	}
	return r.buf[i]
}

// Stored returns the i-th stored element in storage order, for i in
// [0, Len): oldest first until the ring first wraps, rotated after. A
// float sum over a full ring depends on its order, so a reducer whose
// result must not change bytes keeps the order it was written with.
func (r *Ring[T]) Stored(i int) T { return r.buf[i] }
