package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
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
