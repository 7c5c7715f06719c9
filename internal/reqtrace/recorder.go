package reqtrace

import "sync"

// DefaultRecorderCap bounds each of the recorder's two lists when
// NewRecorder is given a non-positive capacity.
const DefaultRecorderCap = 32

// Recorder is the flight recorder: a bounded memory of finished
// request traces, keeping the N slowest and the N most recent. It
// answers "what did the last requests do" and "where did the worst
// requests spend their time" without unbounded growth.
//
// Scraping never blocks a running join: Record and the read methods
// hold one short mutex only while swapping pointers in the two small
// lists — every *TraceData is immutable once recorded, so handlers
// marshal outside the lock and concurrent scrapes share the same
// underlying data. A nil *Recorder is the disabled recorder: Record is
// a no-op, lookups return nothing.
type Recorder struct {
	cap int

	mu      sync.Mutex
	recent  []*TraceData // ring, oldest first once full
	nextIdx int
	slowest []*TraceData // sorted by DurNanos descending, len <= cap
}

// NewRecorder creates a recorder keeping up to n slowest and n most
// recent traces (DefaultRecorderCap when n <= 0).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderCap
	}
	return &Recorder{cap: n, recent: make([]*TraceData, 0, n)}
}

// Record seals root's trace (ending the root span if the caller has
// not) and files it in both lists. No-op on a nil recorder or nil
// span.
func (r *Recorder) Record(root *Span) {
	if r == nil || root == nil {
		return
	}
	d := root.Data()
	r.mu.Lock()
	defer r.mu.Unlock()
	// Most-recent ring.
	if len(r.recent) < r.cap {
		r.recent = append(r.recent, d)
	} else {
		r.recent[r.nextIdx] = d
	}
	r.nextIdx = (r.nextIdx + 1) % r.cap
	// Slowest list: insertion sort into a tiny descending slice.
	if len(r.slowest) < r.cap || d.DurNanos > r.slowest[len(r.slowest)-1].DurNanos {
		i := len(r.slowest)
		if i < r.cap {
			r.slowest = append(r.slowest, d)
		} else {
			i = r.cap - 1
			r.slowest[i] = d
		}
		for i > 0 && r.slowest[i-1].DurNanos < d.DurNanos {
			r.slowest[i-1], r.slowest[i] = r.slowest[i], r.slowest[i-1]
			i--
		}
	}
}

// Recent returns the most recent traces, newest first. Safe to read
// concurrently with Record; the returned traces are immutable. Nil
// recorder returns nil.
func (r *Recorder) Recent() []*TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*TraceData, 0, len(r.recent))
	// Walk the ring backwards from the most recently written slot.
	n := len(r.recent)
	for i := 0; i < n; i++ {
		idx := (r.nextIdx - 1 - i + n) % n
		out = append(out, r.recent[idx])
	}
	return out
}

// Slowest returns the slowest traces, slowest first. Nil recorder
// returns nil.
func (r *Recorder) Slowest() []*TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*TraceData, len(r.slowest))
	copy(out, r.slowest)
	return out
}

// Lookup returns the recorded trace with the given ID (32 hex digits),
// or nil. Both lists are bounded, so this is a short scan under the
// same short mutex as Record.
func (r *Recorder) Lookup(traceID string) *TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.recent {
		if d.TraceID == traceID {
			return d
		}
	}
	for _, d := range r.slowest {
		if d.TraceID == traceID {
			return d
		}
	}
	return nil
}
