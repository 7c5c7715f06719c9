package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"textjoin/internal/iosim"
	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
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

// TestMetricsIOLedgerUnderConcurrency sends a concurrent burst of every
// /join kind and then scrapes /metrics. Each request adds its counters
// once, when it is answered, from its own view and Stats: the per-file
// page-read series must sum to the workspace disk's ledger, into which
// every view merged on Close, and each algorithm's outer_docs must sum
// that algorithm's replies.
func TestMetricsIOLedgerUnderConcurrency(t *testing.T) {
	cfg := defaultConfig()
	cfg.Scale = 1024
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	paths := append(joinPaths(), "/join?mode=lsh&show=0", "/join?alg=auto&recall=0.5&show=0", "/join?alg=auto&prefilter=on&show=0")

	var mu sync.Mutex
	outerDocs := map[string]int64{}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, path := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := serve(h, path)
				var reply joinReply
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body)
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				mu.Lock()
				outerDocs[strings.ToLower(reply.Algorithm)] += reply.OuterDocs
				mu.Unlock()
			}()
		}
	}
	wg.Wait()

	series := scrapeSeries(t, h)
	var seq, rand int64
	for name, v := range series {
		switch {
		case strings.HasPrefix(name, "textjoin_iosim_file_seq_reads_total{"):
			seq += v
		case strings.HasPrefix(name, "textjoin_iosim_file_rand_reads_total{"):
			rand += v
		}
	}
	if disk := s.ws.Disk().Stats(); seq != disk.SeqReads || rand != disk.RandReads || seq+rand == 0 {
		t.Errorf("/metrics page reads sum to seq=%d rand=%d, the disk's merged ledger is %v", seq, rand, disk)
	}
	for alg, n := range outerDocs {
		if got := series["textjoin_join_"+alg+"_outer_docs_total"]; got != n {
			t.Errorf("textjoin_join_%s_outer_docs_total = %d, the replies sum to %d", alg, got, n)
		}
	}
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

// failEachWay answers one /join with each failure outcome: 422, a plan
// the memory budget cannot hold; 500, a page read that fails after the
// request bound its view; and 503, turned away by admission while the
// whole budget is held (the server must have no queue). No outcome may
// leave a view open, and every trace the recorder holds must have ended
// each span it started.
func failEachWay(t *testing.T, s *server, h http.Handler) {
	t.Helper()
	expect := func(path string, status int) {
		t.Helper()
		if rec := serve(h, path); rec.Code != status {
			t.Fatalf("GET %s: status %d, want %d: %s", path, rec.Code, status, rec.Body)
		}
		if n := s.ws.Disk().OpenViews(); n != 0 {
			t.Fatalf("GET %s answered with %d view(s) open", path, n)
		}
	}
	mem := s.cfg.MemoryPages
	s.cfg.MemoryPages = 1
	expect("/join?alg=vvm&show=0", http.StatusUnprocessableEntity)
	s.cfg.MemoryPages = mem
	s.ws.Disk().InjectFaults(iosim.FaultPlan{Repeat: true})
	expect("/join?alg=hhnl&show=0", http.StatusInternalServerError)
	s.ws.Disk().InjectFaults(iosim.FaultPlan{})
	if _, err := s.adm.admit(s.adm.budget); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release(s.adm.budget)
	expect("/join?alg=hhnl&show=0", http.StatusServiceUnavailable)
	for _, d := range s.recorder.Recent() {
		if err := reqtrace.ValidateData(d); err != nil {
			t.Errorf("recorded trace %s: %v", d.Name, err)
		}
	}
}

// outcomeServer is a small server with no admission queue that has
// answered every kind of /join once, one 422, one 500 and one 503.
func outcomeServer(t *testing.T) (*server, http.Handler) {
	t.Helper()
	cfg := defaultConfig()
	cfg.Scale = 1024
	cfg.QueueLen = 0
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	for _, path := range joinKinds {
		if rec := serve(h, path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	failEachWay(t, s, h)
	return s, h
}

// TestSLOCountsServedTraffic: the objectives read the series the server
// writes. An objective naming a series nobody writes would see no events,
// comply fully and pass every budget gate; here the availability window
// must hold the k answered joins as good and the 422, the 500 and the 503
// as bad, and the latency window every /join request sent.
func TestSLOCountsServedTraffic(t *testing.T) {
	s, _ := outcomeServer(t)
	k := int64(len(joinKinds))
	statuses := s.slo.Collect()
	if len(statuses) != 2 {
		t.Fatalf("%d objectives, want availability and latency", len(statuses))
	}
	for _, st := range statuses {
		switch st.Name {
		case "availability":
			if st.Good != k || st.Bad != 3 {
				t.Errorf("availability window: good %d, bad %d; want %d and 3", st.Good, st.Bad, k)
			}
		case "latency":
			if st.Good+st.Bad != k+3 {
				t.Errorf("latency window: %d good + %d bad, want every one of the %d /join requests", st.Good, st.Bad, k+3)
			}
		default:
			t.Errorf("unexpected objective %q", st.Name)
		}
	}
}

// TestMetricsFamilies pins the families textjoind serves: after one
// request of each /join kind, one 422, one 500 and one 503, the exposition holds
// exactly these families, each with its type and label keys. A producer
// spells each name where it adds to the series, so a drifted name
// fails here.
func TestMetricsFamilies(t *testing.T) {
	_, h := outcomeServer(t)
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
		counts := []string{"accumulations", "comparisons", "entry_fetches", "inner_docs", "io_rand", "io_seq", "outer_docs", "passes", "peak_bytes"}
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
