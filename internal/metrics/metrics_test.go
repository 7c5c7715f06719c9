package metrics

import (
	"strings"
	"testing"
)

// demoCollector holds one series of every family shape the programs
// create: plain and labelled counters, gauges, and plain and labelled
// histograms.
func demoCollector() *Collector {
	c := New()
	c.Counter("textjoin_iosim_file_seq_reads_total", "file", "c1.inv").Add(12)
	c.Counter("textjoin_iosim_file_rand_reads_total", "file", "c1.inv").Add(3)
	c.Counter("textjoin_iosim_file_writes_total", "file", "c1").Add(7)
	c.Counter("textjoin_entrycache_hits_total", "policy", "min-outer-df").Add(40)
	c.Counter("textjoin_entrycache_misses_total", "policy", "min-outer-df").Add(9)
	c.Counter("textjoin_join_hvnl_outer_docs_total").Add(100)
	c.Counter("textjoin_join_hvnl_io_seq_total").Add(55)
	c.Counter("textjoin_join_vvm_pairs_total").Add(2)
	c.Counter("textjoin_prefilter_pages_skipped_total", "alg", "hhnl").Add(6)
	c.Counter("textjoin_plan_chosen_total", "alg", "hvnl").Add(1)
	c.Gauge("textjoin_http_inflight").Add(2)
	c.Gauge("textjoin_http_queue_depth").Add(1)
	c.Counter("textjoin_http_rejected_total").Add(4)
	c.Histogram("textjoin_http_request_ns", DefaultLatencyBuckets, "endpoint", "join").Observe(5000)
	c.Histogram("textjoin_plan_error_log2", ExpBuckets(1, 2, 16)).Observe(3)
	c.Histogram("textjoin_phase_ns", DefaultLatencyBuckets, "phase", "scan").Observe(2000)
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

// TestEncodeNaming: a series is written under the family, type and
// labels it was created with, and its family's HELP text.
func TestEncodeNaming(t *testing.T) {
	out := scrape(t, NewExporter(demoCollector(), nil))
	wantLines := []string{
		`textjoin_iosim_file_seq_reads_total{file="c1.inv"} 12`,
		`textjoin_iosim_file_rand_reads_total{file="c1.inv"} 3`,
		`textjoin_iosim_file_writes_total{file="c1"} 7`,
		`textjoin_entrycache_hits_total{policy="min-outer-df"} 40`,
		`textjoin_entrycache_misses_total{policy="min-outer-df"} 9`,
		`textjoin_join_hvnl_outer_docs_total 100`,
		`textjoin_join_hvnl_io_seq_total 55`,
		`textjoin_join_vvm_pairs_total 2`,
		`textjoin_prefilter_pages_skipped_total{alg="hhnl"} 6`,
		`textjoin_plan_chosen_total{alg="hvnl"} 1`,
		"# HELP textjoin_plan_chosen_total Integrated-algorithm choices by algorithm.",
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
		`textjoin_plan_error_log2_bucket{le="+Inf"} 1`,
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
	if err := Lint([]byte(scrape(t, NewExporter(New(), nil)))); err != nil {
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
		c := New()
		c.Counter(Namespace+"_iosim_file_seq_reads_total", "file", v).Add(1)
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

// TestSanitize: the collector rewrites no name. A family is written as
// its producer spelled it, so an illegal name reaches the exposition
// unchanged and Lint, the guard every /metrics test runs, rejects it.
func TestSanitize(t *testing.T) {
	for _, name := range []string{"a.b_total", "a-b_total", "3x_total"} {
		c := New()
		c.Counter(name).Add(1)
		out := scrape(t, NewExporter(c, nil))
		if !strings.Contains(out, "\n"+name+" 1\n") {
			t.Errorf("%s: not written as spelled:\n%s", name, out)
		}
		if err := Lint([]byte(out)); err == nil || !strings.Contains(err.Error(), "invalid metric name") {
			t.Errorf("%s: Lint error %v, want an invalid metric name", name, err)
		}
	}
}
