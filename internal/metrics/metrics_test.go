package metrics

import (
	"strings"
	"testing"

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
	c.Histogram("plan.error.log2", telemetry.DefaultSizeBuckets).Observe(3)
	c.Histogram("hvnl.accum.occupancy", telemetry.DefaultSizeBuckets).Observe(17)
	c.Histogram("phase.scan.ns", telemetry.DefaultLatencyBuckets).Observe(2000)
	return c
}

// scrape renders one exposition through e.
func scrape(t *testing.T, e *Exporter) string {
	t.Helper()
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEncodeNaming pins the stable naming scheme of DESIGN.md §10.
func TestEncodeNaming(t *testing.T) {
	out := scrape(t, NewExporter(demoCollector(), nil))
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
		"# TYPE textjoin_plan_error_log2 histogram",
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
	out := scrape(t, NewExporter(demoCollector(), nil))
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("encoder output rejected by parser: %v\n%s", err, out)
	}
	// An empty collector is a valid exposition too.
	if err := Lint([]byte(scrape(t, NewExporter(telemetry.New(), nil)))); err != nil {
		t.Fatalf("empty exposition rejected: %v", err)
	}
}

// TestScrapesAreStateless: a scrape renders totals only, so two scrapes
// with no work between them differ in the scrape counter alone — no
// scrape leaves state, such as a rate window, that changes the next.
func TestScrapesAreStateless(t *testing.T) {
	e := NewExporter(demoCollector(), func() []Gauge {
		return []Gauge{{Family: Namespace + "_slo_target", LabelKey: "objective", LabelValue: "latency", Value: 0.99}}
	})
	first := strings.Split(scrape(t, e), "\n")
	second := strings.Split(scrape(t, e), "\n")
	if len(first) != len(second) {
		t.Fatalf("second scrape has %d lines, first %d", len(second), len(first))
	}
	for i := range first {
		if first[i] == second[i] {
			continue
		}
		if first[i] != Namespace+"_scrapes_total 1" || second[i] != Namespace+"_scrapes_total 2" {
			t.Errorf("line %d: %q became %q", i+1, first[i], second[i])
		}
	}
}

// TestLabelValuesRoundTrip: a label value is escaped once, so what a
// scraper unescapes is the name the caller gave, whatever it holds.
func TestLabelValuesRoundTrip(t *testing.T) {
	for _, v := range []string{
		`a"b\c`,
		"two\nlines",
		`trailing\`,
		`"\"`,
		"tab\tand\x01control",
	} {
		c := telemetry.New()
		c.Counter("io.file." + v + ".seq").Add(1)
		out := scrape(t, NewExporter(c, func() []Gauge {
			return []Gauge{{Family: Namespace + "_slo_target", LabelKey: "objective", LabelValue: v, Value: 1}}
		}))
		if err := Lint([]byte(out)); err != nil {
			t.Fatalf("%q: exposition rejected: %v\n%s", v, err, out)
		}
		for _, want := range []struct{ family, key string }{
			{Namespace + "_iosim_file_seq_reads_total", "file"},
			{Namespace + "_slo_target", "objective"},
		} {
			var got []string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, want.family+"{") {
					_, labels, _, err := splitSample(line)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, labels[want.key])
				}
			}
			if len(got) != 1 || got[0] != v {
				t.Errorf("%s: label value %q came back as %q", want.family, v, got)
			}
		}
	}
}

// TestExporterNilCollector: a server with telemetry disabled still
// answers /metrics with a valid (nearly empty) exposition.
func TestExporterNilCollector(t *testing.T) {
	e := NewExporter(nil, nil)
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
		"abc":     "abc",
		"a.b-c":   "a_b_c",
		"3x":      "_3x",
		"io.file": "io_file",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
