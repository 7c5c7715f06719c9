package reqtrace

import (
	"strings"
	"testing"
	"time"
)

// renderTrace is a finished trace whose children end out of start order,
// so a renderer that walks Spans as stored gets the tree wrong. Its probe
// span carries ten attributes, more than one map group holds, so a
// renderer that ranged over them through a map would print them out of
// the order they were set in.
func renderTrace() *TraceData {
	tr := NewTracer(3, fakeClock(time.Millisecond))
	root := tr.StartTrace("join")
	exec := root.StartChild("exec", "join hvnl")
	probe := exec.StartChild(PhaseProbe, "hvnl.outer-sweep")
	reply := root.StartChild("reply", "encode")
	reply.End()
	for i, key := range []string{"docs", "pages", "fetches", "hits", "misses", "cells", "rows", "bytes", "passes", "batches"} {
		probe.SetInt(key, int64(7+i))
	}
	probe.End()
	exec.End()
	root.End()
	return root.Data()
}

func TestExport(t *testing.T) {
	d := renderTrace()
	var text strings.Builder
	if err := Export(&text, "text", d); err != nil {
		t.Fatal(err)
	}
	want := "# trace " + d.TraceID + " join dur=7ms spans=4\n" +
		"request join +0s dur=7ms\n" +
		"  exec join hvnl +1ms dur=5ms\n" +
		"    probe hvnl.outer-sweep +2ms dur=3ms docs=7 pages=8 fetches=9 hits=10 misses=11 cells=12 rows=13 bytes=14 passes=15 batches=16\n" +
		"  reply encode +3ms dur=1ms\n"
	if text.String() != want {
		t.Errorf("text export:\n%s\nwant:\n%s", text.String(), want)
	}

	var doc strings.Builder
	if err := Export(&doc, "json", d); err != nil {
		t.Fatal(err)
	}
	if err := Validate([]byte(doc.String())); err != nil {
		t.Errorf("json export fails Validate: %v", err)
	}
	if err := Export(&doc, "xml", d); err == nil {
		t.Error("unknown mode accepted")
	}
}
