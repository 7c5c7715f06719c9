package reqtrace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// goodTrace builds a small valid TraceData for mutation tests.
func goodTrace(t *testing.T) *TraceData {
	t.Helper()
	tr := NewTracer(5, fakeClock(time.Millisecond))
	root := tr.StartTrace("join")
	c := root.StartChild("scan", "outer")
	c.End()
	root.End()
	d := root.Data()
	if err := ValidateData(d); err != nil {
		t.Fatalf("fixture trace invalid: %v", err)
	}
	return d
}

func marshal(t *testing.T, d *TraceData) []byte {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestValidateNegativeCases(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TraceData)
		want   string
	}{
		{"bad schema", func(d *TraceData) { d.Schema = 2 }, "schema"},
		{"bad trace id", func(d *TraceData) { d.TraceID = "xyz" }, "trace id"},
		{"zero trace id", func(d *TraceData) { d.TraceID = strings.Repeat("0", 32) }, "all zero"},
		{"negative trace dur", func(d *TraceData) { d.DurNanos = -1 }, "negative duration"},
		{"no spans", func(d *TraceData) { d.Spans = nil }, "no spans"},
		{"bad span id", func(d *TraceData) { d.Spans[0].ID = "nope" }, "span id"},
		{"duplicate span id", func(d *TraceData) { d.Spans[1].ID = d.Spans[0].ID }, "duplicate"},
		{"orphan parent", func(d *TraceData) { d.Spans[0].Parent = "00000000000000ff" }, "orphan parent"},
		{"self parent", func(d *TraceData) { d.Spans[0].Parent = d.Spans[0].ID }, "its own parent"},
		{"two roots", func(d *TraceData) { d.Spans[0].Parent = "" }, "root spans"},
		{"no root", func(d *TraceData) { d.Spans[1].Parent = d.Spans[0].ID }, "root spans"},
		{"end before start", func(d *TraceData) { d.Spans[0].DurNanos = -5 }, "end before start"},
		{"empty phase", func(d *TraceData) { d.Spans[0].Phase = "" }, "empty phase"},
		{"empty name", func(d *TraceData) { d.Spans[0].Name = "" }, "empty phase or name"},
		{"bad remote parent", func(d *TraceData) { d.RemoteParent = "zz" }, "span id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := goodTrace(t)
			tc.mutate(d)
			err := Validate(marshal(t, d))
			if err == nil {
				t.Fatal("mutated trace accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejectsForeignDocuments(t *testing.T) {
	// A telemetry snapshot and a lone span-like object are both JSON but
	// neither is a request trace: DisallowUnknownFields must reject them,
	// so nothing passes as a trace by accident.
	foreign := [][]byte{
		[]byte(`{"counters":[],"histograms":[],"trace":[],"trace_dropped":0}`),
		[]byte(`{"seq":0,"kind":"span","phase":"scan","name":"x","start_ns":0}`),
		[]byte(`not json`),
		[]byte(`[]`),
	}
	for _, raw := range foreign {
		if err := Validate(raw); err == nil {
			t.Errorf("Validate accepted foreign document %s", raw)
		}
	}
	// Trailing garbage after a valid document is rejected too.
	d := goodTrace(t)
	raw := append(marshal(t, d), []byte("{}")...)
	if err := Validate(raw); err == nil {
		t.Error("Validate accepted trailing data")
	}
}
