package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

// exposition renders a small collector the way /metrics serves it.
func exposition(t *testing.T) []byte {
	t.Helper()
	c := telemetry.New()
	c.Counter("join.hhnl.outer_docs").Add(3)
	c.Histogram("phase.scan.ns", telemetry.DefaultLatencyBuckets).Observe(1000)
	var sb strings.Builder
	if err := metrics.NewExporter(c, nil).WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

// runStream is what a command-line run with -telemetry json emits: the
// exposition, then the run's trace.
func runStream(t *testing.T) []byte {
	t.Helper()
	return append(exposition(t), requestTraceJSON(t)...)
}

func write(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateFormats(t *testing.T) {
	if f, err := validate(exposition(t)); err != nil || f != "exposition" {
		t.Errorf("exposition: format %q err %v", f, err)
	}
	if f, err := validate(runStream(t)); err != nil || f != "exposition, request trace" {
		t.Errorf("exposition then trace: format %q err %v", f, err)
	}
	// Every document after the exposition is checked, and the error
	// says which.
	if _, err := validate(append(runStream(t), `{"reqtrace_schema":1}`...)); err == nil {
		t.Error("stream with an invalid second document accepted")
	} else if !strings.Contains(err.Error(), "document 2") {
		t.Errorf("error does not name the failing document: %v", err)
	}
	// A sample with no TYPE line fails the exposition, by name.
	if _, err := validate([]byte("textjoin_x_total 1\n")); err == nil {
		t.Error("exposition without a TYPE line accepted")
	} else if !strings.Contains(err.Error(), "exposition") || !strings.Contains(err.Error(), "TYPE") {
		t.Errorf("error does not name the exposition's fault: %v", err)
	}
	for name, doc := range map[string]string{
		"empty":         "",
		"whitespace":    " \n\t\n",
		"garbage":       "nonsense\n",
		"json snapshot": `{"counters":[],"histograms":[]}`,
		"neither":       `{"spans":[]}`,
	} {
		if f, err := validate([]byte(doc)); err == nil {
			t.Errorf("%s accepted as %q", name, f)
		}
	}
}

func TestRunMultipleFiles(t *testing.T) {
	dir := t.TempDir()
	good1 := write(t, dir, "metrics.txt", exposition(t))
	good2 := write(t, dir, "run.json", runStream(t))
	bad := write(t, dir, "bad.json", []byte("{broken\n"))

	var out, errOut strings.Builder
	if code := run([]string{good1, good2}, nil, &out, &errOut, false); code != 0 {
		t.Errorf("all-valid run exited %d: %s", code, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "exposition ok") || !strings.Contains(got, "exposition, request trace ok") {
		t.Errorf("missing ok lines:\n%s", got)
	}

	// A bad file in the middle does not stop later files from being
	// checked, and the summary counts it.
	out.Reset()
	errOut.Reset()
	if code := run([]string{good1, bad, good2}, nil, &out, &errOut, false); code != 1 {
		t.Errorf("run with bad file exited %d", code)
	}
	if !strings.Contains(errOut.String(), "1 of 3 input(s) invalid") {
		t.Errorf("missing summary:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), good2) {
		t.Errorf("later file skipped after error:\n%s", out.String())
	}

	// Quiet mode suppresses ok lines, never errors.
	out.Reset()
	errOut.Reset()
	if code := run([]string{good1, bad}, nil, &out, &errOut, true); code != 1 {
		t.Errorf("quiet run exited %d", code)
	}
	if out.String() != "" {
		t.Errorf("quiet mode printed ok lines:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "bad.json") {
		t.Errorf("quiet mode swallowed the error:\n%s", errOut.String())
	}

	// Unreadable file counts as invalid.
	if code := run([]string{filepath.Join(dir, "missing.json")}, nil, &out, &errOut, true); code != 1 {
		t.Errorf("missing file exited %d", code)
	}
}

func TestRunStdin(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader(string(exposition(t))), &out, &errOut, false); code != 0 {
		t.Errorf("stdin run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "<stdin>: exposition ok") {
		t.Errorf("stdin verdict missing:\n%s", out.String())
	}
}

// requestTraceJSON builds one finished request trace through the real
// tracer, exactly as textjoind's flight recorder serves it.
func requestTraceJSON(t *testing.T) []byte {
	t.Helper()
	tick := time.Unix(0, 0)
	tr := reqtrace.NewTracer(7, func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	})
	root := tr.StartTrace("join")
	q := root.StartChild("queue", "admission")
	q.End()
	e := root.StartChild("exec", "join hvnl")
	e.SetAttr("join.alg", "hvnl")
	e.End()
	root.End()
	data, err := json.Marshal(root.Data())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestValidateRequestTrace: a request trace is recognised by its schema
// key and malformed trees are rejected, never passed as an exposition.
func TestValidateRequestTrace(t *testing.T) {
	good := requestTraceJSON(t)
	if f, err := validate(good); err != nil || f != "request trace" {
		t.Fatalf("request trace: format %q err %v", f, err)
	}

	// Corrupt the tree in ways the reqtrace validator must catch: a
	// dangling parent and a second root.
	var d reqtrace.TraceData
	if err := json.Unmarshal(good, &d); err != nil {
		t.Fatal(err)
	}
	dangling := d
	dangling.Spans = append([]reqtrace.SpanData(nil), d.Spans...)
	dangling.Spans[len(dangling.Spans)-1].Parent = "00000000000000ff"
	twoRoots := d
	twoRoots.Spans = append([]reqtrace.SpanData(nil), d.Spans...)
	twoRoots.Spans[0].Parent = "" // the queue child, orphaned into a second root

	for name, bad := range map[string]reqtrace.TraceData{
		"dangling parent": dangling,
		"two roots":       twoRoots,
	} {
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := validate(data); err == nil {
			t.Errorf("%s accepted as %q", name, f)
		}
	}

	// Cross-format isolation: neither kind passes as the other.
	if err := metrics.Lint(good); err == nil {
		t.Error("request trace accepted as an exposition")
	}
	if err := reqtrace.Validate(exposition(t)); err == nil {
		t.Error("exposition accepted as a request trace")
	}
}
