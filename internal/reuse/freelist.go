package reuse

import "sync"

// FreeList is a bounded LIFO of released scratch values. Get hands out
// the value put back last, so sequential runs reuse the one already
// grown to their size, and the bound keeps at most one value per
// concurrent user up to the cap. A FreeList is safe for concurrent use
// and allocates nothing after NewFreeList.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// NewFreeList returns an empty free list holding at most cap values.
func NewFreeList[T any](cap int) *FreeList[T] {
	return &FreeList[T]{items: make([]T, 0, cap)}
}

// Get takes the most recently put value, or reports false when the
// list is empty.
func (f *FreeList[T]) Get() (T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var zero T
	n := len(f.items)
	if n == 0 {
		return zero, false
	}
	x := f.items[n-1]
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return x, true
}

// Put keeps x for the next Get, or reports false when the list is full;
// the caller then disposes of x itself.
func (f *FreeList[T]) Put(x T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) == cap(f.items) {
		return false
	}
	f.items = append(f.items, x)
	return true
}
