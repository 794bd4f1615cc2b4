// Package reuse holds the two ways this code base keeps work for the
// next caller: Memo, a bounded single-flight LRU that shares a
// computed value by key, and FreeList, a bounded LIFO of released
// scratch that the next run leases instead of allocating.
package reuse

import (
	"container/list"
	"errors"
	"sync"
)

// Outcome says how a Memo.Do call was served.
type Outcome uint8

const (
	Hit    Outcome = iota // a completed entry answered
	Joined                // waited on another caller's flight for the key
	Led                   // ran fn itself
)

// errLeaderPanicked is what the joiners of a flight whose fn panicked
// receive; the panic itself goes on up the leader's stack.
var errLeaderPanicked = errors.New("reuse: the computation for this key panicked")

// Memo is a bounded single-flight LRU from K to V, safe for concurrent
// use. Concurrent misses on one key run fn once: the first caller
// leads, the rest wait for its result. A completed value is kept and
// shared read-only by every later caller. An error is never kept: the
// leader's error goes to the callers that joined its flight, and the
// next caller runs fn again. A caller whose errors are results (a
// deterministic failure worth remembering) stores them inside V.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[K, V]
	order   *list.List // completed entries, most recently used first
	limit   int        // ≤ 0 = unbounded
}

// memoEntry is one key. ready is closed once val and err are final;
// elem is nil while the flight runs, so an in-flight entry is neither
// counted against the limit nor evicted.
type memoEntry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	err   error
	elem  *list.Element
}

// NewMemo returns an empty memo keeping at most limit completed entries,
// evicting the least recently used past it; limit ≤ 0 is unbounded.
// Eviction only forgets: callers holding an evicted value keep it.
func NewMemo[K comparable, V any](limit int) *Memo[K, V] {
	return &Memo[K, V]{entries: make(map[K]*memoEntry[K, V]), order: list.New(), limit: limit}
}

// Do returns the value for key, running fn to produce it unless a
// completed entry or a flight in progress already has it.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, Outcome, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.elem != nil {
			m.order.MoveToFront(e.elem)
			m.mu.Unlock()
			return e.val, Hit, nil
		}
		m.mu.Unlock()
		<-e.ready
		return e.val, Joined, e.err
	}
	e := &memoEntry[K, V]{key: key, ready: make(chan struct{}), err: errLeaderPanicked}
	m.entries[key] = e
	m.mu.Unlock()
	defer m.land(e)
	e.val, e.err = fn()
	return e.val, Led, e.err
}

// land ends e's flight: a value joins the LRU (evicting past the
// limit), an error drops the key, and the waiters are released.
func (m *Memo[K, V]) land(e *memoEntry[K, V]) {
	m.mu.Lock()
	if e.err != nil {
		delete(m.entries, e.key)
	} else {
		e.elem = m.order.PushFront(e)
		for m.limit > 0 && m.order.Len() > m.limit {
			delete(m.entries, m.order.Remove(m.order.Back()).(*memoEntry[K, V]).key)
		}
	}
	m.mu.Unlock()
	close(e.ready)
}

// Len returns the number of completed entries held.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}
