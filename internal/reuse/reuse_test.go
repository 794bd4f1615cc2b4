package reuse

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// outcomes counts Do outcomes across goroutines.
type outcomes struct {
	mu sync.Mutex
	n  [3]int
}

func (o *outcomes) add(out Outcome) {
	o.mu.Lock()
	o.n[out]++
	o.mu.Unlock()
}

// TestMemoConcurrentMissesRunOnce: 16 callers released at once on one
// key run fn once and all get the leader's value.
func TestMemoConcurrentMissesRunOnce(t *testing.T) {
	m := NewMemo[string, *int](0)
	var runs int
	var mu sync.Mutex
	start := make(chan struct{})
	got := make([]*int, 16)
	var seen outcomes
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, out, err := m.Do("k", func() (*int, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				time.Sleep(50 * time.Millisecond)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
			seen.add(out)
		}(i)
	}
	close(start)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("16 concurrent misses ran fn %d times, want 1", runs)
	}
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %p, want the leader's %p", i, v, got[0])
		}
	}
	if seen.n[Led] != 1 || seen.n[Joined]+seen.n[Hit] != 15 {
		t.Fatalf("outcomes led/joined/hit = %d/%d/%d, want 1 leader", seen.n[Led], seen.n[Joined], seen.n[Hit])
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestMemoEvictsLRU: past the limit the least recently used completed
// entry goes, and a touched one stays.
func TestMemoEvictsLRU(t *testing.T) {
	m := NewMemo[int, int](2)
	runs := 0
	do := func(k int) Outcome {
		_, out, err := m.Do(k, func() (int, error) { runs++; return k, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Fill 1, 2. Touch 1 (making 2 least recently used), then insert
	// 3: 2 must be the victim.
	for _, k := range []int{1, 2, 1, 3} {
		do(k)
	}
	if runs != 3 {
		t.Fatalf("fn ran %d times, want 3", runs)
	}
	if m.Len() != 2 {
		t.Fatalf("bounded memo holds %d entries, want 2", m.Len())
	}
	if evicted := runs - m.Len(); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if out := do(1); out != Hit {
		t.Fatalf("recently used key: outcome %d, want a hit", out)
	}
	if out := do(2); out != Led {
		t.Fatalf("least recently used key survived: outcome %d, want a fresh run", out)
	}
	if out := do(3); out != Led {
		t.Fatalf("key 3, least recently used after 2 came back, survived: outcome %d", out)
	}
}

// TestMemoInFlightNeverEvicted: completions past the limit evict only
// completed entries, so a caller arriving during a long flight still
// joins it.
func TestMemoInFlightNeverEvicted(t *testing.T) {
	m := NewMemo[string, string](1)
	release := make(chan struct{})
	led := make(chan string)
	go func() {
		v, _, _ := m.Do("slow", func() (string, error) { <-release; return "slow", nil })
		led <- v
	}()
	for !m.inFlight("slow") {
		time.Sleep(time.Millisecond)
	}
	for _, k := range []string{"b", "c"} {
		m.Do(k, func() (string, error) { return k, nil })
	}
	if !m.inFlight("slow") {
		t.Fatal("completions past the limit evicted an in-flight entry")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 completed entry", m.Len())
	}

	joined := make(chan Outcome)
	go func() {
		v, out, _ := m.Do("slow", func() (string, error) { t.Error("joiner ran fn"); return "", nil })
		if v != "slow" {
			t.Errorf("joiner got %q", v)
		}
		joined <- out
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if v := <-led; v != "slow" {
		t.Fatalf("leader got %q", v)
	}
	if out := <-joined; out == Led {
		t.Fatal("a caller during the flight led a second one")
	}
	// The landed flight is the most recent entry; "c" made way for it.
	if _, out, _ := m.Do("slow", func() (string, error) { return "", nil }); out != Hit {
		t.Fatalf("landed flight: outcome %d, want a hit", out)
	}
}

// inFlight reports whether key has a flight in progress.
func (m *Memo[K, V]) inFlight(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return ok && e.elem == nil
}

// TestMemoFailedFlightNotKept: a failed flight hands its error to every
// caller that joined it and is then forgotten, so the next caller runs
// fn again.
func TestMemoFailedFlightNotKept(t *testing.T) {
	m := NewMemo[string, int](0)
	boom := errors.New("boom")
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, out, err := m.Do("k", func() (int, error) { <-release; return 0, boom }); out != Led || err != boom {
			t.Errorf("leader: outcome %d err %v", out, err)
		}
	}()
	for !m.inFlight("k") {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	var seen outcomes
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, out, err := m.Do("k", func() (int, error) { return 0, errors.New("late run") })
			seen.add(out)
			if out == Joined && err != boom {
				t.Errorf("joiner got %v, want the leader's error", err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	<-done
	if seen.n[Hit] != 0 {
		t.Fatal("a failed flight was served as a hit")
	}
	if seen.n[Joined] == 0 {
		t.Fatal("no caller joined the failing flight")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after failures, want 0", m.Len())
	}
	v, out, err := m.Do("k", func() (int, error) { return 7, nil })
	if out != Led || err != nil || v != 7 {
		t.Fatalf("retry after a failure = %d, outcome %d, err %v; want a fresh run", v, out, err)
	}
}

// TestMemoLeaderPanic: a panicking fn fails its flight instead of
// wedging it, and the panic reaches the leader.
func TestMemoLeaderPanic(t *testing.T) {
	m := NewMemo[string, int](0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the leader's panic was swallowed")
			}
		}()
		m.Do("k", func() (int, error) { panic("fn") })
	}()
	if _, out, err := m.Do("k", func() (int, error) { return 1, nil }); out != Led || err != nil {
		t.Fatalf("after a panic: outcome %d err %v, want a fresh run", out, err)
	}
}

// TestFreeListLIFO pins the order, the bound and the zero-allocation
// steady state.
func TestFreeListLIFO(t *testing.T) {
	f := NewFreeList[*int](2)
	if _, ok := f.Get(); ok {
		t.Fatal("empty list handed out a value")
	}
	a, b, c := new(int), new(int), new(int)
	if !f.Put(a) || !f.Put(b) {
		t.Fatal("Put below the cap refused")
	}
	if f.Put(c) {
		t.Fatal("Put past the cap accepted")
	}
	if x, _ := f.Get(); x != b {
		t.Fatal("Get did not return the value put last")
	}
	if x, _ := f.Get(); x != a {
		t.Fatal("second Get did not return the first value")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		f.Put(a)
		f.Get()
	}); allocs != 0 {
		t.Fatalf("Put/Get allocate %.1f times per run", allocs)
	}
}
