package ring

import (
	"slices"
	"testing"
)

func contents(r *Ring[int], at func(int) int) []int {
	out := make([]int, r.Len())
	for i := range out {
		out[i] = at(i)
	}
	return out
}

// TestRingOrder checks At (oldest first) and Stored (storage order)
// before, at and after the first wrap.
func TestRingOrder(t *testing.T) {
	r := New[int](3)
	if r.Len() != 0 {
		t.Fatalf("fresh ring Len = %d, want 0", r.Len())
	}
	steps := []struct {
		push       int
		at, stored []int
	}{
		{1, []int{1}, []int{1}},
		{2, []int{1, 2}, []int{1, 2}},
		{3, []int{1, 2, 3}, []int{1, 2, 3}},
		{4, []int{2, 3, 4}, []int{4, 2, 3}}, // evicts 1
		{5, []int{3, 4, 5}, []int{4, 5, 3}},
		{6, []int{4, 5, 6}, []int{4, 5, 6}}, // head back at slot 0
		{7, []int{5, 6, 7}, []int{7, 5, 6}},
	}
	for _, st := range steps {
		r.Push(st.push)
		if got := contents(&r, r.At); !slices.Equal(got, st.at) {
			t.Errorf("after Push(%d): At order %v, want %v", st.push, got, st.at)
		}
		if got := contents(&r, r.Stored); !slices.Equal(got, st.stored) {
			t.Errorf("after Push(%d): Stored order %v, want %v", st.push, got, st.stored)
		}
	}
}

// TestRingCapacityOne keeps only the newest element.
func TestRingCapacityOne(t *testing.T) {
	r := New[string](1)
	for _, s := range []string{"a", "b", "c"} {
		r.Push(s)
		if r.Len() != 1 || r.At(0) != s || r.Stored(0) != s {
			t.Fatalf("after Push(%q): Len %d At %q Stored %q", s, r.Len(), r.At(0), r.Stored(0))
		}
	}
}

// TestMemoBoundedFIFO fills a memo past its capacity: it keeps exactly
// capacity keys, forgets the oldest first, and fills each key once while
// it is held.
func TestMemoBoundedFIFO(t *testing.T) {
	const capacity = 4
	m := NewMemo[int, int](capacity)
	fills := 0
	get := func(k int) int {
		return m.Get(k, func() int { fills++; return 10 * k })
	}
	for k := range 2 * capacity {
		if v := get(k); v != 10*k {
			t.Fatalf("Get(%d) = %d, want %d", k, v, 10*k)
		}
		if want := min(k+1, capacity); len(m.m) != want || m.keys.Len() != want {
			t.Fatalf("after %d keys: %d memoized, %d in key order; want %d", k+1, len(m.m), m.keys.Len(), want)
		}
	}
	for k := capacity; k < 2*capacity; k++ {
		get(k)
	}
	if fills != 2*capacity {
		t.Errorf("%d fills after re-reading the held keys, want %d", fills, 2*capacity)
	}
	get(0)
	if fills != 2*capacity+1 {
		t.Errorf("evicted key 0 was not filled again")
	}
	if _, ok := m.m[capacity]; ok {
		t.Errorf("refilling key 0 kept the oldest held key %d", capacity)
	}
}
