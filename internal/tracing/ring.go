package tracing

import (
	"fmt"

	"powerfits/internal/metrics"
)

// Ring is a bounded EventSink: the most recent Capacity events are
// kept, older ones are overwritten, and the overwrites are accounted
// (Dropped) so a consumer always knows whether the capture is the whole
// stream or a suffix. The buffer is allocated once at construction;
// Emit is an index increment and a 24-byte store, with no allocation
// and no branch on the drop path beyond the wrap check.
type Ring struct {
	buf     []Event
	head    int    // index of the oldest stored event
	n       int    // stored events (≤ cap)
	total   uint64 // events ever emitted
	dropped uint64 // events overwritten (total - n once full)
}

// NewRing returns a ring holding at most capacity events.
func NewRing(capacity int) (*Ring, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("tracing: non-positive ring capacity %d", capacity)
	}
	return &Ring{buf: make([]Event, capacity)}, nil
}

// MustNewRing is NewRing but panics on error.
func MustNewRing(capacity int) *Ring {
	r, err := NewRing(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Emit implements EventSink: append, overwriting the oldest event when
// the ring is full.
func (r *Ring) Emit(e Event) {
	r.total++
	if r.n < len(r.buf) {
		i := r.head + r.n
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		r.buf[i] = e
		r.n++
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Len returns the number of stored events.
func (r *Ring) Len() int { return r.n }

// Total returns the number of events ever emitted.
func (r *Ring) Total() uint64 { return r.total }

// Dropped returns the number of events overwritten before they could be
// read — 0 means Events() is the complete stream.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Publish exports the ring's accounting as gauges on sc — the counts
// that previously surfaced only inside the Chrome-trace export's
// otherData block. Call it after the traced run completes: the ring is
// single-goroutine (Emit is not synchronized), so publishing mid-run
// from another goroutine would race the sink.
func (r *Ring) Publish(sc metrics.Scope) {
	sc.Gauge("events_total").Set(float64(r.total))
	sc.Gauge("events_dropped").Set(float64(r.dropped))
	sc.Gauge("events_kept").Set(float64(r.n))
	sc.Gauge("capacity").Set(float64(len(r.buf)))
}

// Events returns the stored events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, r.n)
	end := r.head + r.n
	if end > len(r.buf) {
		end = len(r.buf)
	}
	tail := copy(out, r.buf[r.head:end])
	copy(out[tail:], r.buf[:r.n-tail])
	return out
}
