package metrics

import (
	"strings"
	"testing"
	"time"

	"textjoin/internal/telemetry"
)

// demoCollector populates one counter/histogram of every namespace the
// instrumented layers use, exercising each naming rule.
func demoCollector() *telemetry.Collector {
	c := telemetry.New()
	c.Counter("io.file.c1.inv.seq").Add(12)
	c.Counter("io.file.c1.inv.rand").Add(3)
	c.Counter("io.file.c1.writes").Add(7)
	c.Counter("io.file.c1.bt.faults").Add(1)
	c.Counter("cache.min-outer-df.hits").Add(40)
	c.Counter("cache.min-outer-df.misses").Add(9)
	c.Counter("join.hvnl.outer_docs").Add(100)
	c.Counter("join.hvnl.io.seq").Add(55)
	c.Counter("join.vvm.accum.flat").Add(2)
	c.Counter("plan.chosen.hvnl").Add(1)
	c.Counter("query.statements").Add(5)
	c.Counter("http.inflight").Add(2)
	c.Counter("http.queue_depth").Add(1)
	c.Counter("http.rejected").Add(4)
	c.Histogram("http.request.join.ns", telemetry.DefaultLatencyBuckets).Observe(5000)
	c.Histogram("io.readat.pages", telemetry.DefaultSizeBuckets).Observe(3)
	c.Histogram("hvnl.accum.occupancy", telemetry.DefaultSizeBuckets).Observe(17)
	c.Histogram("phase.scan.ns", telemetry.DefaultLatencyBuckets).Observe(2000)
	return c
}

// TestEncodeNaming pins the stable naming scheme of DESIGN.md §10.
func TestEncodeNaming(t *testing.T) {
	var sb strings.Builder
	if err := Encode(&sb, demoCollector().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		`textjoin_iosim_file_seq_reads_total{file="c1.inv"} 12`,
		`textjoin_iosim_file_rand_reads_total{file="c1.inv"} 3`,
		`textjoin_iosim_file_writes_total{file="c1"} 7`,
		`textjoin_iosim_file_faults_total{file="c1.bt"} 1`,
		`textjoin_entrycache_hits_total{policy="min-outer-df"} 40`,
		`textjoin_entrycache_misses_total{policy="min-outer-df"} 9`,
		`textjoin_join_hvnl_outer_docs_total 100`,
		`textjoin_join_hvnl_io_seq_total 55`,
		`textjoin_join_vvm_accum_total{kind="flat"} 2`,
		`textjoin_plan_chosen_total{alg="hvnl"} 1`,
		`textjoin_query_statements_total 5`,
		"# TYPE textjoin_http_inflight gauge",
		`textjoin_http_inflight 2`,
		"# TYPE textjoin_http_queue_depth gauge",
		`textjoin_http_queue_depth 1`,
		"# TYPE textjoin_http_rejected_total counter",
		`textjoin_http_rejected_total 4`,
		"# TYPE textjoin_http_request_ns histogram",
		`textjoin_http_request_ns_count{endpoint="join"} 1`,
		"# TYPE textjoin_phase_ns histogram",
		`textjoin_phase_ns_count{phase="scan"} 1`,
		"# TYPE textjoin_iosim_readat_pages histogram",
		"# TYPE textjoin_join_hvnl_accum_occupancy histogram",
		`textjoin_join_hvnl_accum_occupancy_bucket{le="+Inf"} 1`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output lacks line %q", want)
		}
	}
}

// TestEncodePassesLint is the exposition-format spot check: everything
// the encoder produces must survive the strict parser.
func TestEncodePassesLint(t *testing.T) {
	var sb strings.Builder
	if err := Encode(&sb, demoCollector().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(sb.String())); err != nil {
		t.Fatalf("encoder output rejected by parser: %v\n%s", err, sb.String())
	}
	// The empty snapshot is a valid exposition too.
	sb.Reset()
	if err := Encode(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(sb.String())); err != nil {
		t.Fatalf("empty exposition rejected: %v", err)
	}
}

func TestExporterRates(t *testing.T) {
	c := telemetry.New()
	ct := c.Counter("join.hvnl.comparisons")
	ct.Add(10)

	now := time.Unix(100, 0)
	e := NewExporter(c, WithExporterClock(func() time.Time {
		now = now.Add(2 * time.Second)
		return now
	}))

	var first strings.Builder
	if err := e.WriteMetrics(&first); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(first.String(), "_per_second") {
		t.Error("first scrape should have no rate gauges")
	}
	if !strings.Contains(first.String(), "textjoin_scrapes_total 1\n") {
		t.Error("first scrape lacks scrape counter")
	}

	ct.Add(30)
	var second strings.Builder
	if err := e.WriteMetrics(&second); err != nil {
		t.Fatal(err)
	}
	if want := "textjoin_join_hvnl_comparisons_per_second 15\n"; !strings.Contains(second.String(), want) {
		t.Errorf("second scrape lacks %q:\n%s", want, second.String())
	}
	if err := Lint([]byte(second.String())); err != nil {
		t.Fatalf("rated scrape rejected by parser: %v", err)
	}
}

// TestGaugeFamiliesGetNoRates: serving-level gauges (inflight, queue
// depth) move both ways, so a per-second delta would be meaningless —
// the rate pass must skip them while still rating true counters.
func TestGaugeFamiliesGetNoRates(t *testing.T) {
	c := telemetry.New()
	inflight := c.Counter("http.inflight")
	inflight.Add(3)
	rejected := c.Counter("http.rejected")
	rejected.Add(1)

	now := time.Unix(100, 0)
	e := NewExporter(c, WithExporterClock(func() time.Time {
		now = now.Add(2 * time.Second)
		return now
	}))
	var first strings.Builder
	if err := e.WriteMetrics(&first); err != nil {
		t.Fatal(err)
	}
	inflight.Add(-2) // requests finished
	rejected.Add(6)
	var second strings.Builder
	if err := e.WriteMetrics(&second); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if strings.Contains(out, "textjoin_http_inflight_per_second") ||
		strings.Contains(out, "textjoin_http_queue_depth_per_second") {
		t.Errorf("gauge family got a rate series:\n%s", out)
	}
	if !strings.Contains(out, "textjoin_http_rejected_per_second 3\n") {
		t.Errorf("counter family lost its rate series:\n%s", out)
	}
	if !strings.Contains(out, "textjoin_http_inflight 1\n") {
		t.Errorf("gauge level not exported:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("scrape rejected by parser: %v\n%s", err, out)
	}
}

// TestExporterNilCollector: a server with telemetry disabled still
// answers /metrics with a valid (nearly empty) exposition.
func TestExporterNilCollector(t *testing.T) {
	e := NewExporter(nil)
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(sb.String())); err != nil {
		t.Fatalf("nil-collector exposition rejected: %v", err)
	}
	if !strings.Contains(sb.String(), "textjoin_scrapes_total 1\n") {
		t.Error("nil-collector scrape lacks scrape counter")
	}
}

func TestLintRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no-type", "textjoin_x_total 1\n", "precedes its TYPE"},
		{"dup-type", "# TYPE a counter\n# TYPE a counter\n", "duplicate TYPE"},
		{"bad-type", "# TYPE a blip\n", "unknown metric type"},
		{"negative-counter", "# TYPE a_total counter\na_total -1\n", "negative value"},
		{"counter-name", "# TYPE a counter\na 1\n", "does not end in _total"},
		{"dup-series", "# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "duplicate series"},
		{"timestamp", "# TYPE a gauge\na 1 12345\n", "no timestamps"},
		{"bad-label", "# TYPE a gauge\na{1x=\"v\"} 1\n", "invalid label name"},
		{"unterminated", "# TYPE a gauge\na{x=\"v} 1\n", "unterminated"},
		{"hist-no-inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"hist-desc", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "cumulative counts decrease"},
		{"hist-count", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n", "count 5"},
		{"hist-no-sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "_sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Lint([]byte(tc.doc))
			if err == nil {
				t.Fatal("linter accepted a malformed exposition")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"abc":       "abc",
		"a.b-c":     "a_b_c",
		"3x":        "_3x",
		"io.readat": "io_readat",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
