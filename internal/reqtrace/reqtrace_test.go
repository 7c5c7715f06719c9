package reqtrace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic clock advancing a fixed step per read,
// the same idiom telemetry tests use under the wallclock lint.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Unix(1700000000, 0)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * step)
	}
}

func TestDeterministicIDs(t *testing.T) {
	mk := func() (TraceID, SpanID) {
		tr := NewTracer(42, fakeClock(time.Millisecond))
		root := tr.StartTrace("join")
		child := root.StartChild("scan", "outer")
		return root.TraceID(), child.SpanID()
	}
	id1, sp1 := mk()
	id2, sp2 := mk()
	if id1 != id2 || sp1 != sp2 {
		t.Fatalf("same seed produced different IDs: %v/%v vs %v/%v", id1, sp1, id2, sp2)
	}
	other := NewTracer(43, fakeClock(time.Millisecond)).StartTrace("join").TraceID()
	if other == id1 {
		t.Fatalf("different seeds produced the same trace ID %v", id1)
	}
	if id1.IsZero() || sp1 == 0 {
		t.Fatal("generated IDs must be non-zero")
	}
}

func TestTraceTreeRoundTrip(t *testing.T) {
	tr := NewTracer(7, fakeClock(time.Millisecond))
	root := tr.StartTrace("join alg=hvnl")
	root.SetAttr("alg", "hvnl")
	root.SetInt("show", 10)
	root.SetFloat("lambda", 20)

	queue := root.StartChild("queue", "admission")
	queue.End()
	exec := root.StartChild("plan", "integrated.choose")
	probe := exec.StartChild("probe", "hvnl.probe")
	probe.End()
	exec.End()
	root.End()

	d := root.Data()
	if d == nil {
		t.Fatal("Data returned nil")
	}
	if err := ValidateData(d); err != nil {
		t.Fatalf("finished trace fails validation: %v", err)
	}
	if len(d.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(d.Spans))
	}
	// Root is last (end order) and carries the attributes.
	rootSpan := d.Spans[len(d.Spans)-1]
	if rootSpan.Parent != "" {
		t.Fatalf("last span is not the root: %+v", rootSpan)
	}
	if len(rootSpan.Attrs) != 3 || rootSpan.Attrs[0].Value != "hvnl" ||
		rootSpan.Attrs[1].Value != "10" || rootSpan.Attrs[2].Value != "20" {
		t.Fatalf("root attrs = %+v", rootSpan.Attrs)
	}
	// The probe span's parent is the exec span.
	var probeData, execData *SpanData
	for i := range d.Spans {
		switch d.Spans[i].Name {
		case "hvnl.probe":
			probeData = &d.Spans[i]
		case "integrated.choose":
			execData = &d.Spans[i]
		}
	}
	if probeData == nil || execData == nil {
		t.Fatal("missing expected spans")
	}
	if probeData.Parent != execData.ID {
		t.Fatalf("probe parent = %s, want %s", probeData.Parent, execData.ID)
	}
	// The wire form round-trips through Validate.
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(raw); err != nil {
		t.Fatalf("marshaled trace fails Validate: %v", err)
	}
	// Data is built once.
	if root.Data() != d {
		t.Fatal("Data is not cached")
	}
}

func TestDataSealsOpenRoot(t *testing.T) {
	tr := NewTracer(1, fakeClock(time.Millisecond))
	root := tr.StartTrace("join")
	child := root.StartChild("scan", "outer")
	child.End()
	// Record-without-End (a panic path) must still yield a closed tree.
	d := root.Data()
	if err := ValidateData(d); err != nil {
		t.Fatalf("implicitly sealed trace fails validation: %v", err)
	}
	if d.DurNanos <= 0 {
		t.Fatalf("sealed trace has duration %d", d.DurNanos)
	}
}

func TestAttrsAfterEndDropped(t *testing.T) {
	tr := NewTracer(1, fakeClock(time.Millisecond))
	root := tr.StartTrace("join")
	root.End()
	root.SetAttr("late", "x")
	d := root.Data()
	if len(d.Spans[0].Attrs) != 0 {
		t.Fatalf("attr recorded after End: %+v", d.Spans[0].Attrs)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer(1, fakeClock(time.Millisecond))
	root := tr.StartTrace("join")
	c := root.StartChild("scan", "x")
	c.End()
	c.End()
	root.End()
	root.End()
	if n := len(root.Data().Spans); n != 2 {
		t.Fatalf("double End duplicated spans: %d, want 2", n)
	}
}

func TestConcurrentSiblings(t *testing.T) {
	tr := NewTracer(1, fakeClock(time.Microsecond))
	root := tr.StartTrace("join")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.StartChild("merge", "worker")
			sp.SetInt("worker", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	d := root.Data()
	if len(d.Spans) != 9 {
		t.Fatalf("spans = %d, want 9", len(d.Spans))
	}
	if err := ValidateData(d); err != nil {
		t.Fatalf("concurrent trace fails validation: %v", err)
	}
}

// TestNilPathAllocsNothing pins the disabled-path contract: with tracing
// off (nil tracer → nil spans) the request-path primitives must not
// allocate.
func TestNilPathAllocsNothing(t *testing.T) {
	var tr *Tracer
	var rec *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.StartTrace("join")
		child := root.StartChild("scan", "outer")
		child.SetAttr("k", "v")
		child.SetInt("n", 1)
		child.SetFloat("f", 0.5)
		child.End()
		_ = root.TraceID()
		_ = root.SpanID()
		rec.Record(root)
		root.End()
		ObservePhases(nil, root.Data())
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yields a span")
	}
	tr := NewTracer(1, fakeClock(time.Millisecond))
	root := tr.StartTrace("join")
	ctx := NewContext(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("context does not round-trip the span")
	}
	if FromContext(NewContext(context.Background(), nil)) != nil {
		t.Fatal("nil span in context must come back nil")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := TraceID{Hi: 0xdeadbeef, Lo: 0x12345678}
	sp := SpanID(0xabcdef01)
	v := FormatTraceparent(id, sp)
	gotID, gotSpan, err := ParseTraceparent(v)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id || gotSpan != sp {
		t.Fatalf("round trip: %v/%v, want %v/%v", gotID, gotSpan, id, sp)
	}

	bad := []string{
		"",
		"00-abc-def-01",
		"01-" + id.String() + "-" + sp.String() + "-01",             // version
		"00-" + strings.Repeat("0", 32) + "-" + sp.String() + "-01", // zero trace
		"00-" + id.String() + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + id.String() + "-" + sp.String() + "-zz",             // flags
		"00-" + strings.Repeat("g", 32) + "-" + sp.String() + "-01", // non-hex
		"00-" + id.String() + "-" + sp.String(),                     // missing flags
		"00-" + id.String() + "-" + sp.String() + "-01-extra",       // extra field
		"00-" + id.String()[:31] + "-" + sp.String() + "-01",        // short trace
	}
	for _, v := range bad {
		if _, _, err := ParseTraceparent(v); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
}

func TestStartLinkedTrace(t *testing.T) {
	tr := NewTracer(9, fakeClock(time.Millisecond))
	remote := TraceID{Hi: 1, Lo: 2}
	root := tr.StartLinkedTrace("join", remote, SpanID(77))
	root.End()
	d := root.Data()
	if d.TraceID != remote.String() {
		t.Fatalf("linked trace id = %s, want %s", d.TraceID, remote.String())
	}
	if d.RemoteParent != SpanID(77).String() {
		t.Fatalf("remote parent = %q", d.RemoteParent)
	}
	if err := ValidateData(d); err != nil {
		t.Fatalf("linked trace fails validation: %v", err)
	}
	// The root span itself has no parent — the remote parent is
	// trace-level only, keeping the local tree self-contained.
	if d.Spans[0].Parent != "" {
		t.Fatalf("root span parent = %q, want empty", d.Spans[0].Parent)
	}
	// Zero remote ID falls back to a fresh trace.
	fresh := tr.StartLinkedTrace("join", TraceID{}, 0)
	if fresh.TraceID().IsZero() {
		t.Fatal("zero remote ID must mint a fresh trace ID")
	}
}
