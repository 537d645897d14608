// Package ring provides Ring, the fixed-capacity history buffer behind
// every bounded single-writer history in the stack: the health plane's
// rollup tiers, exemplar rings and alert journal, the flight recorder's
// recent-dump ring, and the gateway's per-tag link windows. The flight
// recorder's span shards keep their own ring: they have concurrent
// writers, an atomic head and cache-line padding. Memo, a bounded memo
// that forgets its oldest key first, keeps its key order on a Ring.
package ring

import "sync"

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

// Memo is a bounded memo: a map that holds at most a fixed number of keys
// and forgets the oldest key first. Its keys sit on a Ring in insertion
// order, so eviction is one delete, never a map range. A Memo is safe for
// concurrent use.
type Memo[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]V
	keys Ring[K]
}

// NewMemo returns an empty memo that holds up to capacity keys. The
// capacity must be positive.
func NewMemo[K comparable, V any](capacity int) *Memo[K, V] {
	return &Memo[K, V]{m: map[K]V{}, keys: New[K](capacity)}
}

// Get returns the value memoized for k, calling fill to make it on a
// miss. fill runs under the memo's lock, so concurrent misses on one key
// fill it once.
func (m *Memo[K, V]) Get(k K, fill func() V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.m[k]; ok {
		return v
	}
	v := fill()
	if m.keys.Len() == len(m.keys.buf) {
		delete(m.m, m.keys.At(0))
	}
	m.keys.Push(k)
	m.m[k] = v
	return v
}
