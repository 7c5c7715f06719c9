// Package reqtrace is the tracing layer of the join system and its only
// span type: one trace per /join request (or per command-line run),
// built from parent/child spans with string attributes, identified by
// 128-bit trace IDs and 64-bit span IDs.
//
// Where internal/telemetry aggregates (counters and histograms, no
// clock, no request identity), reqtrace preserves causality: every span
// knows its parent, every trace is one request, and the finished tree
// records where that request's milliseconds went — queue wait, plan
// decision, join phases, per-view I/O, reply — next to the planner's
// estimates and the join's measured counts, so the paper's
// estimated-vs-measured comparison (Section 5) exists per request on
// the live server, not only in offline calibration runs. The aggregate
// per-phase duration histograms are derived from finished trees
// (ObservePhases), never measured a second time.
//
// Two rules shape the implementation:
//
//   - Determinism under the wallclock lint. IDs come from a seeded
//     splitmix64 sequence, never from a global RNG, and every timestamp
//     is read through the injected clock a Tracer is constructed with.
//     The package itself never calls time.Now, so it stays inside the
//     repo's wall-clock hygiene rule; a fixed seed plus a fake clock
//     reproduces a trace byte for byte.
//
//   - The nil disabled path. Like a nil *telemetry.Collector, a nil
//     *Tracer, *Span or *Recorder is the disabled tracer: every method
//     is a nil-check no-op that performs no allocation and reads no
//     clock, so instrumented code threads spans unconditionally and a
//     join with tracing off pays one predictable branch per phase.
package reqtrace

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier, rendered as 32 lowercase hex
// digits (the W3C trace-context shape).
type TraceID struct{ Hi, Lo uint64 }

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	return fmt.Sprintf("%016x%016x", id.Hi, id.Lo)
}

// ParseTraceID parses 32 hex digits into a TraceID. The all-zero ID is
// rejected, as in the W3C trace-context spec.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("reqtrace: trace id %q: want 32 hex digits", s)
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return TraceID{}, fmt.Errorf("reqtrace: trace id %q: %v", s, err)
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return TraceID{}, fmt.Errorf("reqtrace: trace id %q: %v", s, err)
	}
	id := TraceID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return TraceID{}, errors.New("reqtrace: trace id is all zero")
	}
	return id, nil
}

// SpanID is a 64-bit span identifier, rendered as 16 lowercase hex
// digits. The zero SpanID means "no span" (a root has no parent).
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseSpanID parses 16 hex digits into a SpanID, rejecting zero.
func ParseSpanID(s string) (SpanID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("reqtrace: span id %q: want 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("reqtrace: span id %q: %v", s, err)
	}
	if v == 0 {
		return 0, errors.New("reqtrace: span id is zero")
	}
	return SpanID(v), nil
}

// Tracer mints traces. IDs are drawn from a seeded splitmix64 sequence
// (the same generator the LSH and signature layers use), so a fixed
// seed yields a reproducible ID stream; timestamps come from the
// injected clock. A nil *Tracer is the disabled tracer: StartTrace
// returns a nil span and the whole downstream tree is a no-op.
//
// Tracer is safe for concurrent use: the ID state advances atomically.
type Tracer struct {
	now   func() time.Time
	state atomic.Uint64
}

// NewTracer creates a tracer with the given ID seed and clock. The
// clock is required — the package never reads wall time on its own;
// pass time.Now from main, or a fake from tests.
func NewTracer(seed uint64, now func() time.Time) *Tracer {
	if now == nil {
		panic("reqtrace: NewTracer needs a clock")
	}
	t := &Tracer{now: now}
	// Mix the seed so seed 0 still produces a usable stream.
	t.state.Store(seed ^ 0x9e3779b97f4a7c15)
	return t
}

// nextID draws the next splitmix64 output, mapped away from zero so it
// is always a valid trace-half or span ID.
func (t *Tracer) nextID() uint64 {
	x := t.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// StartTrace begins a new trace and returns its root span. On a nil
// tracer no clock is read and the returned span is nil (a no-op).
func (t *Tracer) StartTrace(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, TraceID{Hi: t.nextID(), Lo: t.nextID()}, 0)
}

// StartLinkedTrace continues a trace context propagated from another
// process (a traceparent header): the new trace adopts the remote trace
// ID and records the remote span as the root's logical parent. The
// remote parent is kept as a trace-level field — not as the root span's
// parent reference — so the local span tree stays self-contained (one
// root, every parent resolvable) while the coordinator can still stitch
// trees across nodes by ID.
func (t *Tracer) StartLinkedTrace(name string, remote TraceID, remoteParent SpanID) *Span {
	if t == nil {
		return nil
	}
	if remote.IsZero() {
		return t.StartTrace(name)
	}
	return t.start(name, remote, remoteParent)
}

func (t *Tracer) start(name string, id TraceID, remoteParent SpanID) *Span {
	tr := &Trace{
		tracer:       t,
		id:           id,
		remoteParent: remoteParent,
		name:         name,
		start:        t.now(),
	}
	tr.root = &Span{trace: tr, id: SpanID(t.nextID()), phase: "request", name: name, start: tr.start}
	return tr.root
}

// Trace is one request's span tree under construction. Spans append to
// it as they end; the root span's End seals the trace. All methods are
// internal to the package — callers hold spans, and hand the root to a
// Recorder.
type Trace struct {
	tracer       *Tracer
	id           TraceID
	remoteParent SpanID
	name         string
	start        time.Time

	root *Span

	mu    sync.Mutex
	spans []SpanData
	end   time.Time
	done  bool
	data  *TraceData // built once, after done
}

// Span is one timed operation within a trace. Spans form a tree:
// StartChild hangs a new span under the receiver. A nil *Span is the
// disabled span — StartChild returns nil, attribute setters and End do
// nothing, no clock is read, nothing allocates.
//
// A single span is owned by one goroutine (set attributes and End from
// the goroutine that started it); sibling spans may be used
// concurrently — StartChild and End are safe to call on different
// spans from different goroutines.
type Span struct {
	trace  *Trace
	id     SpanID
	parent SpanID
	phase  string
	name   string
	start  time.Time
	attrs  []Attr
	ended  bool
}

// Attr is one string-valued span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceID returns the trace's ID, zero on a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace.id
}

// SpanID returns the span's ID, zero on a nil span.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// StartChild begins a child span in the given phase (one of the Phase*
// labels). On a nil span no clock is read and nil is returned.
func (s *Span) StartChild(phase, name string) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	return &Span{
		trace:  t,
		id:     SpanID(t.tracer.nextID()),
		parent: s.id,
		phase:  phase,
		name:   name,
		start:  t.tracer.now(),
	}
}

// SetAttr records a string attribute on the span. No-op on a nil span
// or after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt records an integer attribute. No-op on a nil span.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SetFloat records a float attribute. No-op on a nil span.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)})
}

// End finishes the span, appending it to the trace. Ending the root
// span seals the trace (its duration is fixed and Data becomes
// available). End is idempotent; no-op on a nil span.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.trace
	end := t.tracer.now()
	sd := SpanData{
		ID:         s.id.String(),
		Phase:      s.phase,
		Name:       s.name,
		StartNanos: s.start.Sub(t.start).Nanoseconds(),
		DurNanos:   end.Sub(s.start).Nanoseconds(),
		Attrs:      s.attrs,
	}
	if s.parent != 0 {
		sd.Parent = s.parent.String()
	}
	t.mu.Lock()
	t.spans = append(t.spans, sd)
	if s.parent == 0 && !t.done {
		t.done = true
		t.end = end
	}
	t.mu.Unlock()
}

// Data returns the finished trace tree. The root span must have been
// ended; Data on an unfinished trace ends the root implicitly so a
// panic-path Record still yields a closed tree. The result is built
// once and immutable afterwards — safe to share with concurrent
// readers. Nil on a nil span.
func (s *Span) Data() *TraceData {
	if s == nil {
		return nil
	}
	root := s.trace.root
	if root != s {
		// Only the root span seals a trace.
		root.End()
	} else {
		s.End()
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.data != nil {
		return t.data
	}
	d := &TraceData{
		Schema:         SchemaVersion,
		TraceID:        t.id.String(),
		Name:           t.name,
		StartUnixNanos: t.start.UnixNano(),
		DurNanos:       t.end.Sub(t.start).Nanoseconds(),
		Spans:          t.spans,
	}
	if t.remoteParent != 0 {
		d.RemoteParent = t.remoteParent.String()
	}
	t.data = d
	return d
}
