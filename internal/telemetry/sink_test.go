package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCollector builds a fully deterministic collector: fixed counters
// and a histogram with an overflow hit.
func goldenCollector() *Collector {
	c := New()
	c.Counter("io.file.c1.inv.seq").Add(12)
	c.Counter("cache.lru.hits").Add(7)
	c.Counter("cache.lru.misses").Add(3)
	h := c.Histogram("io.readat.pages", []int64{1, 4, 16})
	for _, v := range []int64{1, 2, 4, 9, 100} {
		h.Observe(v)
	}
	return c
}

func golden(t *testing.T, sink Sink, file string) {
	t.Helper()
	var buf bytes.Buffer
	if err := sink.Export(&buf, goldenCollector().Snapshot()); err != nil {
		t.Fatalf("export: %v", err)
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}

func TestTextSinkGolden(t *testing.T) { golden(t, TextSink{}, "snapshot.golden.txt") }
func TestJSONSinkGolden(t *testing.T) { golden(t, JSONSink{}, "snapshot.golden.json") }

func TestJSONExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := (JSONSink{}).Export(&buf, goldenCollector().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON(buf.Bytes()); err != nil {
		t.Errorf("exporter output rejected by its own validator: %v", err)
	}
	// An empty (nil-collector) snapshot is also valid.
	buf.Reset()
	var nilC *Collector
	if err := (JSONSink{}).Export(&buf, nilC.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON(buf.Bytes()); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
}

func TestValidateJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"not-json", `{`, "invalid snapshot"},
		{"unknown-field", `{"counters":[],"histograms":[],"bogus":1}`, "invalid snapshot"},
		{"trailing-data", `{"counters":[],"histograms":[]} {}`, "trailing data"},
		{"empty-counter-name", `{"counters":[{"name":"","value":1}],"histograms":[]}`, "empty name"},
		{"histogram-no-buckets", `{"counters":[],"histograms":[{"name":"h","count":0,"sum":0,"buckets":[]}]}`, "no buckets"},
		{"bounds-not-ascending", `{"counters":[],"histograms":[{"name":"h","count":2,"sum":0,"buckets":[{"le":10,"count":1},{"le":5,"count":0},{"le":9223372036854775807,"count":1}]}]}`, "not ascending"},
		{"negative-bucket", `{"counters":[],"histograms":[{"name":"h","count":0,"sum":0,"buckets":[{"le":10,"count":-1},{"le":9223372036854775807,"count":1}]}]}`, "negative count"},
		{"missing-overflow", `{"counters":[],"histograms":[{"name":"h","count":1,"sum":0,"buckets":[{"le":10,"count":1}]}]}`, "overflow bucket"},
		{"count-mismatch", `{"counters":[],"histograms":[{"name":"h","count":5,"sum":0,"buckets":[{"le":10,"count":1},{"le":9223372036854775807,"count":1}]}]}`, "sum to"},
		// A snapshot from before the trace ring was removed must be
		// rejected loudly, not read as its counters and histograms alone.
		{"stale-trace-key", `{"counters":[],"histograms":[],"trace":[],"trace_dropped":0}`, `unknown field "trace"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateJSON([]byte(tc.doc))
			if err == nil {
				t.Fatal("validator accepted a malformed snapshot")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSinkFor(t *testing.T) {
	if s, err := SinkFor("text"); err != nil || s == nil {
		t.Errorf("SinkFor(text) = %v, %v", s, err)
	}
	if s, err := SinkFor("json"); err != nil || s == nil {
		t.Errorf("SinkFor(json) = %v, %v", s, err)
	}
	if _, err := SinkFor("xml"); err == nil {
		t.Error("SinkFor(xml) accepted")
	}
}
