package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
)

// runSmoke is the self-contained health check behind `textjoind -smoke`
// (and `make obs-smoke`): it starts the server on an ephemeral loopback
// port, drives every endpoint through real HTTP, validates the /metrics
// exposition with the strict parser and a request's trace with the
// tracecheck schema, and shuts the listener down cleanly. Any failure
// returns an error (non-zero exit) — no curl, jq or scrape tooling
// needed in CI.
func runSmoke(cfg config, out io.Writer) error {
	// A small workspace keeps the smoke run under a second.
	if cfg.Scale < 4096 {
		cfg.Scale = 4096
	}
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: workspace %s\n", srv.describe())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body, nil
	}

	steps := []struct {
		name string
		run  func() error
	}{
		{"healthz", func() error {
			body, err := get("/healthz")
			if err != nil {
				return err
			}
			var h struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(body, &h); err != nil {
				return err
			}
			if h.Status != "ok" {
				return fmt.Errorf("status %q", h.Status)
			}
			return nil
		}},
		{"join auto", func() error {
			body, err := get("/join?alg=auto&show=1")
			if err != nil {
				return err
			}
			var j joinResponse
			if err := json.Unmarshal(body, &j); err != nil {
				return err
			}
			if !j.Integrated || j.OuterDocs == 0 {
				return fmt.Errorf("unexpected join response: %s", body)
			}
			fmt.Fprintf(out, "smoke: integrated chose %s (cost %.0f)\n", j.Algorithm, j.Cost)
			return nil
		}},
		{"join concurrent", func() error {
			// A concurrent burst: every request must succeed, each on
			// its own I/O view under the admission budget.
			paths := []string{
				"/join?alg=hhnl&show=0", "/join?alg=hvnl&show=0",
				"/join?alg=vvm&show=0", "/join?alg=hvnl&prefilter=on&show=0",
			}
			errs := make(chan error, len(paths))
			for _, p := range paths {
				go func(p string) { _, err := get(p); errs <- err }(p)
			}
			for range paths {
				if err := <-errs; err != nil {
					return err
				}
			}
			return nil
		}},
		{"join rejects bad alg", func() error {
			resp, err := client.Get(base + "/join?alg=bogus")
			if err != nil {
				return err
			}
			//lint:ignore errdrop only the status code matters to this step
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				return fmt.Errorf("alg=bogus: want 400, got %d", resp.StatusCode)
			}
			return nil
		}},
		{"join prefilter", func() error {
			body, err := get("/join?alg=hhnl&prefilter=on&show=0")
			if err != nil {
				return err
			}
			var j joinResponse
			if err := json.Unmarshal(body, &j); err != nil {
				return err
			}
			if j.Prefilter == nil {
				return fmt.Errorf("prefilter=on reply carries no prefilter stats: %s", body)
			}
			body, err = get("/metrics")
			if err != nil {
				return err
			}
			if !strings.Contains(string(body), "textjoin_prefilter_") {
				return fmt.Errorf("exposition lacks textjoin_prefilter_ counters")
			}
			return nil
		}},
		{"join lsh", func() error {
			body, err := get("/join?mode=lsh&show=0")
			if err != nil {
				return err
			}
			var j joinResponse
			if err := json.Unmarshal(body, &j); err != nil {
				return err
			}
			if j.Algorithm != "LSH" || j.LSH == nil {
				return fmt.Errorf("mode=lsh reply is not an LSH join: %s", body)
			}
			if _, err := get("/join?alg=auto&recall=0.9&show=0"); err != nil {
				return err
			}
			body, err = get("/metrics")
			if err != nil {
				return err
			}
			if !strings.Contains(string(body), "textjoin_join_lsh_") {
				return fmt.Errorf("exposition lacks textjoin_join_lsh_ counters")
			}
			return nil
		}},
		{"metrics scrape", func() error {
			body, err := get("/metrics")
			if err != nil {
				return err
			}
			if err := metrics.Lint(body); err != nil {
				return fmt.Errorf("exposition rejected: %v", err)
			}
			if !strings.Contains(string(body), "textjoin_scrapes_total") {
				return fmt.Errorf("exposition lacks textjoin_scrapes_total")
			}
			for _, family := range []string{
				"textjoin_http_inflight", "textjoin_http_queue_depth",
				"textjoin_http_request_ns",
			} {
				if !strings.Contains(string(body), family) {
					return fmt.Errorf("exposition lacks %s", family)
				}
			}
			return nil
		}},
		{"request trace", func() error {
			// A traced join: the response names its trace, the flight
			// recorder serves the full tree, and the tree validates
			// against the reqtrace schema.
			body, err := get("/join?alg=hvnl&show=0")
			if err != nil {
				return err
			}
			var j joinResponse
			if err := json.Unmarshal(body, &j); err != nil {
				return err
			}
			if j.TraceID == "" {
				return fmt.Errorf("join reply carries no trace_id: %s", body)
			}
			list, err := get("/debug/requests?format=json")
			if err != nil {
				return err
			}
			if !strings.Contains(string(list), j.TraceID) {
				return fmt.Errorf("flight recorder listing lacks trace %s", j.TraceID)
			}
			detail, err := get("/debug/requests/" + j.TraceID + "?format=json")
			if err != nil {
				return err
			}
			if err := reqtrace.Validate(detail); err != nil {
				return fmt.Errorf("trace %s rejected: %v", j.TraceID, err)
			}
			var d reqtrace.TraceData
			if err := json.Unmarshal(detail, &d); err != nil {
				return err
			}
			phases := map[string]bool{}
			for _, sp := range d.Spans {
				phases[sp.Phase] = true
			}
			for _, want := range []string{"request", "queue", "snapshot", "exec", "io", "reply"} {
				if !phases[want] {
					return fmt.Errorf("trace %s lacks a %s span: %s", j.TraceID, want, detail)
				}
			}
			return nil
		}},
		{"slo gauges", func() error {
			body, err := get("/metrics")
			if err != nil {
				return err
			}
			if err := metrics.Lint(body); err != nil {
				return fmt.Errorf("exposition rejected: %v", err)
			}
			for _, family := range []string{
				`textjoin_slo_target{objective="availability"}`,
				`textjoin_slo_target{objective="latency"}`,
				"textjoin_slo_compliance", "textjoin_slo_error_budget_remaining",
				"textjoin_slo_burn_rate", "textjoin_slo_window_seconds",
			} {
				if !strings.Contains(string(body), family) {
					return fmt.Errorf("exposition lacks %s", family)
				}
			}
			return nil
		}},
		{"pprof index", func() error {
			body, err := get("/debug/pprof/")
			if err != nil {
				return err
			}
			if !strings.Contains(string(body), "goroutine") {
				return fmt.Errorf("pprof index lacks profiles")
			}
			return nil
		}},
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			//lint:ignore errdrop a shutdown error must not mask the failing step's error
			hs.Close()
			return fmt.Errorf("%s: %w", step.name, err)
		}
		fmt.Fprintf(out, "smoke: %-18s ok\n", step.name)
	}

	// The concurrent burst can leave connections the client dialed but
	// never sent a request on; the server counts those idle only after
	// 5 s, as long as the deadline below, so close them from this side.
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(out, "smoke: shutdown clean")
	return nil
}
