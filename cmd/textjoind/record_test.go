package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"textjoin/internal/metrics"
)

// serve answers one request in process, without a socket.
func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// scrapeSeries renders /metrics and returns every sample line's value by
// series, the name with its labels.
func scrapeSeries(t *testing.T, h http.Handler) map[string]int64 {
	t.Helper()
	body := serve(h, "/metrics").Body.Bytes()
	if err := metrics.Lint(body); err != nil {
		t.Fatal(err)
	}
	series := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			series[line[:i]] = v
		}
	}
	return series
}

// TestServerHugeLambda: a λ far beyond the inner collection is served as
// λ = N1 — a row keeps at most N1 matches — instead of sizing a tracker by
// λ: the request answers 200 with exactly the rows of lambda=N1.
func TestServerHugeLambda(t *testing.T) {
	cfg := defaultConfig()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	rows := func(lambda string) []joinResult {
		t.Helper()
		rec := serve(h, "/join?alg=hvnl&show=1000000&lambda="+lambda)
		if rec.Code != http.StatusOK {
			t.Fatalf("lambda=%s: status %d: %s", lambda, rec.Code, rec.Body)
		}
		var reply joinReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Results
	}
	want := rows(strconv.FormatInt(s.c1.Stats().N, 10))
	if got := rows("1099511627776"); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("lambda=2^40 answered %d rows unlike the %d rows of lambda=N1", len(got), len(want))
	}
}

// joinKinds is one /join request of each kind textjoind serves: the
// integrated plan (with and without a recall SLO), each exact family,
// LSH and the prefiltered join.
var joinKinds = []string{
	"/join?alg=auto&show=0", "/join?alg=auto&recall=0.9&show=0",
	"/join?alg=hhnl&show=0", "/join?alg=hvnl&weighting=tfidf&show=0",
	"/join?alg=vvm&weighting=cosine&show=0", "/join?mode=lsh&show=0",
	"/join?alg=hhnl&prefilter=on&show=0",
}

// TestMetricsFamilies pins the families textjoind serves: after every
// request of the serving harness's pool, a 422, a 500 and a 503, the
// exposition holds exactly these families, each with its type and label
// keys. A producer
// spells each name where it adds to the series, so a drifted name
// fails here.
func TestMetricsFamilies(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"422", hs.unrunnable}, step{"fault", hs.fault}, step{"queue full", hs.queueFull})
	h := hs.h
	serve(h, "/metrics") // so the second scrape carries the metrics endpoint's latency
	body := serve(h, "/metrics").Body.String()
	if err := metrics.Lint([]byte(body)); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	keys := map[string]map[string]bool{}
	var family string
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(f, " ")
			family, types[name], keys[name] = name, typ, map[string]bool{}
			continue
		}
		_, labels, ok := strings.Cut(line, "{")
		if line == "" || line[0] == '#' || !ok {
			continue
		}
		labels, _, _ = strings.Cut(labels, "}")
		for _, pair := range strings.Split(labels, ",") {
			if key, _, _ := strings.Cut(pair, "="); key != "le" {
				keys[family][key] = true
			}
		}
	}
	var got []string
	for name, typ := range types {
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		got = append(got, strings.TrimSpace(name+" "+typ+" "+strings.Join(ks, ",")))
	}
	sort.Strings(got)
	want := []string{
		"textjoin_entrycache_evictions_total counter policy",
		"textjoin_entrycache_hits_total counter policy",
		"textjoin_entrycache_misses_total counter policy",
		"textjoin_entrycache_rejected_total counter policy",
		"textjoin_http_inflight gauge",
		"textjoin_http_join_err_total counter",
		"textjoin_http_join_ok_total counter",
		"textjoin_http_queue_depth gauge",
		"textjoin_http_rejected_total counter",
		"textjoin_http_request_ns histogram endpoint",
		"textjoin_iosim_file_rand_reads_total counter file",
		"textjoin_iosim_file_seq_reads_total counter file",
		"textjoin_iosim_file_writes_total counter file",
	}
	for _, alg := range []string{"hhnl", "hvnl", "lsh", "vvm"} {
		counts := []string{"accumulations", "cells_decoded", "comparisons", "entry_fetches", "inner_docs", "io_rand", "io_seq", "outer_docs", "passes", "peak_bytes", "tracker_entries"}
		switch alg {
		case "hvnl", "vvm":
			counts = append(counts, "pairs")
		case "lsh":
			counts = append(counts, "bucket_probes", "candidates", "docs_skipped", "pages_skipped")
		}
		for _, c := range counts {
			want = append(want, "textjoin_join_"+alg+"_"+c+"_total counter")
		}
	}
	want = append(want,
		"textjoin_phase_ns histogram phase",
		"textjoin_plan_chosen_total counter alg",
		"textjoin_plan_error_log2 histogram",
		"textjoin_prefilter_clusters_skipped_total counter alg",
		"textjoin_prefilter_docs_skipped_total counter alg",
		"textjoin_prefilter_false_passes_total counter alg",
		"textjoin_prefilter_pages_skipped_total counter alg",
		"textjoin_scrapes_total counter",
	)
	for _, f := range []string{"burn_rate", "compliance", "error_budget_remaining", "target", "window_seconds"} {
		want = append(want, "textjoin_slo_"+f+" gauge objective")
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("families served:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
