// Command textjoind is the long-running observability service: it builds
// a workspace once (two generated collections with their inverted
// files), then serves joins and live telemetry over HTTP.
//
// Endpoints:
//
//	/join          run a join; query parameters alg (auto, hhnl, hvnl,
//	               vvm, lsh), mode (exact, lsh), recall, lambda,
//	               weighting (raw, cosine, tfidf), prefilter, show;
//	               responds with JSON
//	/metrics       Prometheus text exposition of the telemetry collector
//	               (totals only: rates are the scraper's rate())
//	/healthz       liveness plus workspace summary, JSON
//	/debug/requests
//	               the flight recorder: the slowest and most recent
//	               request traces (HTML, or JSON with ?format=json);
//	               /debug/requests/{traceID} is one request's span tree
//	/debug/pprof/  the standard Go profiling handlers
//
// Every /join answers (and accepts) a W3C-style Traceparent header and
// reports its trace_id in the response body; textjoin_slo_* gauge
// families on /metrics track the availability and latency objectives'
// error budgets.
//
// Usage:
//
//	textjoind -addr localhost:8080 -p1 wsj -p2 wsj -scale 2048
//	textjoind -smoke        # boot on loopback, one /join, one /metrics scrape, exit
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
)

func main() {
	cfg := defaultConfig()
	addr := flag.String("addr", "localhost:8080", "listen address (port 0 picks a free port)")
	smoke := flag.Bool("smoke", false, "start on a loopback port, answer one /join and one Lint-checked /metrics scrape, shut down; exit non-zero on failure")
	flag.StringVar(&cfg.P1, "p1", cfg.P1, "inner collection profile: wsj, fr, doe")
	flag.StringVar(&cfg.P2, "p2", cfg.P2, "outer collection profile: wsj, fr, doe")
	flag.Int64Var(&cfg.Scale, "scale", cfg.Scale, "profile shrink divisor")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generation seed")
	flag.Int64Var(&cfg.MemoryPages, "mem", cfg.MemoryPages, "memory budget B in pages")
	flag.Float64Var(&cfg.Alpha, "alpha", cfg.Alpha, "random/sequential I/O cost ratio α")
	flag.IntVar(&cfg.Lambda, "lambda", cfg.Lambda, "default λ of SIMILAR_TO(λ)")
	budgetMB := flag.Int64("budget-mb", cfg.BudgetBytes>>20, "admission budget for concurrent joins, MiB (0 runs joins one at a time)")
	flag.IntVar(&cfg.QueueLen, "queue", cfg.QueueLen, "admission wait-queue capacity; a full queue rejects with 503")
	flag.DurationVar(&cfg.QueueWait, "queue-wait", cfg.QueueWait, "longest a request may wait for admission before 503")
	flag.DurationVar(&cfg.IODelay, "io-delay", cfg.IODelay, "real wall-clock latency per simulated page read (benchmark device model)")
	flag.Uint64Var(&cfg.TraceSeed, "trace-seed", cfg.TraceSeed, "seed of the request tracer's deterministic ID stream")
	flag.IntVar(&cfg.RecorderCap, "recorder-cap", cfg.RecorderCap, "flight recorder capacity: keeps this many slowest and this many most recent request traces")
	flag.DurationVar(&cfg.SLOWindow, "slo-window", cfg.SLOWindow, "rolling window for SLO evaluation")
	flag.Float64Var(&cfg.SLOAvailTarget, "slo-avail", cfg.SLOAvailTarget, "availability SLO target in (0, 1)")
	flag.Float64Var(&cfg.SLOLatencyTarget, "slo-latency-target", cfg.SLOLatencyTarget, "latency SLO target in (0, 1)")
	flag.DurationVar(&cfg.SLOLatency, "slo-latency", cfg.SLOLatency, "latency SLO threshold: a /join under this duration is good")
	flag.Parse()
	cfg.BudgetBytes = *budgetMB << 20

	if *smoke {
		if err := runSmoke(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "textjoind: smoke:", err)
			os.Exit(1)
		}
		return
	}

	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "textjoind:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "textjoind:", err)
		os.Exit(1)
	}
	fmt.Printf("textjoind: %s\n", srv.describe())
	fmt.Printf("textjoind: listening on %s\n", ln.Addr())
	if err := (&http.Server{Handler: srv.handler()}).Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "textjoind:", err)
		os.Exit(1)
	}
}
