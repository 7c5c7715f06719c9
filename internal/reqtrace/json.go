package reqtrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// SchemaVersion identifies the per-request trace JSON shape. The field
// name ("reqtrace_schema") is unique to this format: its presence is how
// cmd/tracecheck tells a request trace from a telemetry snapshot.
const SchemaVersion = 1

// TraceData is the wire form of one finished request trace: exactly
// what /debug/requests/{traceID} serves and what Validate accepts.
type TraceData struct {
	Schema int `json:"reqtrace_schema"`
	// TraceID is 32 lowercase hex digits.
	TraceID string `json:"trace_id"`
	// Name is the request label the trace was started with.
	Name string `json:"name"`
	// RemoteParent is the propagated upstream span ID (16 hex digits)
	// when the request carried a traceparent header; empty otherwise.
	RemoteParent string `json:"remote_parent,omitempty"`
	// StartUnixNanos anchors the trace on the wall clock.
	StartUnixNanos int64 `json:"start_unix_ns"`
	// DurNanos is the root span's duration.
	DurNanos int64 `json:"dur_ns"`
	// Spans lists every finished span, in end order; the root (empty
	// parent) is last.
	Spans []SpanData `json:"spans"`
}

// SpanData is the wire form of one finished span.
type SpanData struct {
	// ID is 16 lowercase hex digits, unique within the trace.
	ID string `json:"id"`
	// Parent is the parent span's ID; empty on the root.
	Parent string `json:"parent,omitempty"`
	// Phase is the Phase* label the span ran under.
	Phase string `json:"phase"`
	// Name identifies the operation, e.g. "hvnl.probe".
	Name string `json:"name"`
	// StartNanos is the offset from the trace start.
	StartNanos int64 `json:"start_ns"`
	// DurNanos is the span duration; always >= 0 (end >= start).
	DurNanos int64  `json:"dur_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Validate parses data as one TraceData document (unknown fields
// rejected, no trailing garbage) and checks tree well-formedness with
// ValidateData.
func Validate(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t TraceData
	if err := dec.Decode(&t); err != nil {
		return fmt.Errorf("reqtrace: %v", err)
	}
	if dec.More() {
		return errors.New("reqtrace: trailing data after trace document")
	}
	return ValidateData(&t)
}

// ValidateData checks the invariants every finished trace holds:
// schema version, a parseable non-zero trace ID, a non-negative
// duration, and a well-formed span tree — at least one span, exactly
// one root, unique parseable span IDs, every parent resolving to a
// span in the trace, every span with end >= start and a non-empty
// phase and name.
func ValidateData(t *TraceData) error {
	if t.Schema != SchemaVersion {
		return fmt.Errorf("reqtrace: schema %d, want %d", t.Schema, SchemaVersion)
	}
	if _, err := ParseTraceID(t.TraceID); err != nil {
		return err
	}
	if t.DurNanos < 0 {
		return fmt.Errorf("reqtrace: trace %s: negative duration %d", t.TraceID, t.DurNanos)
	}
	if t.RemoteParent != "" {
		if _, err := ParseSpanID(t.RemoteParent); err != nil {
			return err
		}
	}
	if len(t.Spans) == 0 {
		return fmt.Errorf("reqtrace: trace %s has no spans", t.TraceID)
	}
	ids := make(map[string]bool, len(t.Spans))
	roots := 0
	for i := range t.Spans {
		sp := &t.Spans[i]
		if _, err := ParseSpanID(sp.ID); err != nil {
			return err
		}
		if ids[sp.ID] {
			return fmt.Errorf("reqtrace: trace %s: duplicate span id %s", t.TraceID, sp.ID)
		}
		ids[sp.ID] = true
		if sp.Parent == "" {
			roots++
		}
		if sp.DurNanos < 0 {
			return fmt.Errorf("reqtrace: span %s: end before start (dur %d)", sp.ID, sp.DurNanos)
		}
		if sp.Phase == "" || sp.Name == "" {
			return fmt.Errorf("reqtrace: span %s: empty phase or name", sp.ID)
		}
	}
	if roots != 1 {
		return fmt.Errorf("reqtrace: trace %s: %d root spans, want exactly 1", t.TraceID, roots)
	}
	for i := range t.Spans {
		sp := &t.Spans[i]
		if sp.Parent == "" {
			continue
		}
		if _, err := ParseSpanID(sp.Parent); err != nil {
			return err
		}
		if !ids[sp.Parent] {
			return fmt.Errorf("reqtrace: span %s: orphan parent %s", sp.ID, sp.Parent)
		}
		if sp.Parent == sp.ID {
			return fmt.Errorf("reqtrace: span %s is its own parent", sp.ID)
		}
	}
	return nil
}
