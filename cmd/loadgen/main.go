// Command loadgen is an open-loop load generator for textjoind: it fires
// /join requests at a fixed arrival rate — arrivals never wait for
// completions, as in a real request stream — cycling through a mix of
// algorithm/λ/prefilter profiles, and reports completed throughput and
// latency percentiles per target.
//
// One run can drive several servers (repeat -target label=url) so a
// serialized baseline and a concurrent server face the identical
// arrival process; the combined report lands in one JSON file whose
// field order is fixed (benchreport-style), making diffs reviewable.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -rate 50 -duration 10s
//	loadgen -target serialized=http://:8081 -target concurrent=http://:8082 \
//	        -rate 200 -duration 10s -json BENCH_PR7.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// target is one server under load.
type target struct {
	Label string
	URL   string
}

// targetList implements flag.Value for repeated -target label=url.
type targetList []target

func (t *targetList) String() string {
	var parts []string
	for _, x := range *t {
		parts = append(parts, x.Label+"="+x.URL)
	}
	return strings.Join(parts, ",")
}

func (t *targetList) Set(v string) error {
	label, url, ok := strings.Cut(v, "=")
	if !ok || label == "" || url == "" {
		return fmt.Errorf("want label=url, got %q", v)
	}
	*t = append(*t, target{Label: label, URL: url})
	return nil
}

// defaultMix cycles through the serving profiles: all three exact
// algorithms, HHNL with the prefilter (the one family that prunes with
// it), the approximate LSH join, plus the integrated planner.
const defaultMix = "alg=hhnl|alg=hvnl|alg=vvm|alg=hhnl&prefilter=on|mode=lsh|alg=auto"

// report is the JSON artifact. Field order is fixed by the struct, all
// floats are rounded to fixed precision, and no timestamps are recorded
// — two runs differ only where the measurement differs.
type report struct {
	Version int       `json:"version"`
	Config  runConfig `json:"config"`
	Runs    []runStat `json:"runs"`
}

type runConfig struct {
	RatePerSec      float64  `json:"rate_per_sec"`
	DurationSeconds float64  `json:"duration_seconds"`
	Lambda          int      `json:"lambda"`
	Mix             []string `json:"mix"`
}

// runStat is one target's outcome. Rejected counts 503s (admission
// control shedding load, by design); Unprocessable counts 422s (the
// server admitted the request but the workspace cannot run that join —
// a mix problem, not an overload signal); Errors everything else
// non-200.
type runStat struct {
	Label            string  `json:"label"`
	Requests         int64   `json:"requests"`
	OK               int64   `json:"ok"`
	Rejected         int64   `json:"rejected"`
	Unprocessable    int64   `json:"unprocessable"`
	Errors           int64   `json:"errors"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	P50Ms            float64 `json:"p50_ms"`
	P90Ms            float64 `json:"p90_ms"`
	P99Ms            float64 `json:"p99_ms"`
	P999Ms           float64 `json:"p999_ms"`
	MaxMs            float64 `json:"max_ms"`
	// The server-reported residence breakdown, decoded from each 200
	// reply's queue_seconds/exec_seconds fields. GapP50Ms is the median
	// client-vs-server latency gap — what the network, HTTP layer and
	// response encoding cost on top of the server's own accounting.
	QueueP50Ms  float64 `json:"queue_p50_ms"`
	ExecP50Ms   float64 `json:"exec_p50_ms"`
	ServerP50Ms float64 `json:"server_p50_ms"`
	GapP50Ms    float64 `json:"gap_p50_ms"`
	// ServerOverruns counts replies whose self-reported time exceeded
	// the client-measured latency — impossible if both clocks are sane.
	ServerOverruns int64 `json:"server_overruns"`
}

func main() {
	var targets targetList
	addr := flag.String("addr", "http://localhost:8080", "single server base URL (ignored when -target is given)")
	label := flag.String("label", "default", "run label for the single -addr target")
	flag.Var(&targets, "target", "label=url server under load; repeat for several targets")
	rate := flag.Float64("rate", 50, "arrival rate in requests per second (open loop)")
	duration := flag.Duration("duration", 5*time.Second, "length of each run")
	lambda := flag.Int("lambda", 5, "λ sent with every request")
	mix := flag.String("mix", defaultMix, "request profiles, '|'-separated /join query fragments, cycled per arrival")
	wait := flag.Duration("wait", 0, "poll each target's /healthz this long before loading (0 = no wait)")
	jsonPath := flag.String("json", "", "write the machine-readable report here")
	flag.Parse()

	if len(targets) == 0 {
		targets = targetList{{Label: *label, URL: *addr}}
	}
	profiles := strings.Split(*mix, "|")

	rep := report{
		Version: 1,
		Config: runConfig{
			RatePerSec:      *rate,
			DurationSeconds: (*duration).Seconds(),
			Lambda:          *lambda,
			Mix:             profiles,
		},
	}
	for _, tgt := range targets {
		if *wait > 0 {
			if err := waitReady(tgt.URL, *wait); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", tgt.Label, err)
				os.Exit(1)
			}
		}
		rep.Runs = append(rep.Runs, runLoad(tgt, *rate, *duration, *lambda, profiles))
	}

	printTable(os.Stdout, rep.Runs)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("loadgen: wrote %s\n", *jsonPath)
	}
}

// waitReady polls /healthz until the server answers 200 or the budget
// runs out — the handshake that lets CI start loadgen and textjoind
// concurrently.
func waitReady(base string, budget time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			//lint:ignore errdrop readiness probe: a drain error just means another retry
			io.Copy(io.Discard, resp.Body)
			//lint:ignore errdrop readiness probe: a close error just means another retry
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v", base, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runLoad drives one target with a fixed-rate arrival process: a ticker
// fires every 1/rate seconds and each arrival gets its own goroutine,
// so a slow (or queued) request never delays the next arrival — the
// open-loop property that exposes queueing collapse, which closed-loop
// generators hide.
func runLoad(tgt target, rate float64, duration time.Duration, lambda int, profiles []string) runStat {
	client := &http.Client{Timeout: 2 * duration}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(duration)

	st := runStat{Label: tgt.Label}
	var mu sync.Mutex
	var latencies, queueMs, execMs, serverMs, gapMs []float64
	var wg sync.WaitGroup
	begin := time.Now()
	next := 0
arrivals:
	for {
		select {
		case <-stop:
			break arrivals
		case <-ticker.C:
			profile := profiles[next%len(profiles)]
			next++
			st.Requests++
			wg.Add(1)
			go func(profile string) {
				defer wg.Done()
				url := fmt.Sprintf("%s/join?%s&lambda=%d&show=0", tgt.URL, profile, lambda)
				reqBegin := time.Now()
				resp, err := client.Get(url)
				var body []byte
				if resp != nil {
					// A truncated body must classify as a transport error,
					// not a success with a bogus latency sample.
					var readErr error
					body, readErr = io.ReadAll(resp.Body)
					if err == nil {
						err = readErr
					}
					//lint:ignore errdrop body fully read above; Close carries no further signal
					resp.Body.Close()
				}
				// The client clock stops only after the body is fully
				// read, so it strictly covers the server's own
				// wall_seconds accounting.
				elapsed := time.Since(reqBegin)
				status := 0
				if resp != nil {
					status = resp.StatusCode
				}
				mu.Lock()
				defer mu.Unlock()
				switch classify(err, status) {
				case outcomeOK:
					st.OK++
					clientMs := elapsed.Seconds() * 1e3
					latencies = append(latencies, clientMs)
					// The server's residence breakdown rides in every
					// 200 reply; the gap between the two clocks is the
					// client-side overhead the server cannot see.
					var j struct {
						QueueSeconds float64 `json:"queue_seconds"`
						ExecSeconds  float64 `json:"exec_seconds"`
					}
					if json.Unmarshal(body, &j) == nil {
						sMs := (j.QueueSeconds + j.ExecSeconds) * 1e3
						queueMs = append(queueMs, j.QueueSeconds*1e3)
						execMs = append(execMs, j.ExecSeconds*1e3)
						serverMs = append(serverMs, sMs)
						gapMs = append(gapMs, clientMs-sMs)
						if sMs > clientMs {
							st.ServerOverruns++
						}
					}
				case outcomeRejected:
					st.Rejected++
				case outcomeUnprocessable:
					st.Unprocessable++
				default:
					st.Errors++
				}
			}(profile)
		}
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()

	sort.Float64s(latencies)
	sort.Float64s(queueMs)
	sort.Float64s(execMs)
	sort.Float64s(serverMs)
	sort.Float64s(gapMs)
	st.ThroughputPerSec = round3(float64(st.OK) / elapsed)
	st.P50Ms = round3(percentile(latencies, 0.50))
	st.P90Ms = round3(percentile(latencies, 0.90))
	st.P99Ms = round3(percentile(latencies, 0.99))
	st.P999Ms = round3(percentile(latencies, 0.999))
	if n := len(latencies); n > 0 {
		st.MaxMs = round3(latencies[n-1])
	}
	st.QueueP50Ms = round3(percentile(queueMs, 0.50))
	st.ExecP50Ms = round3(percentile(execMs, 0.50))
	st.ServerP50Ms = round3(percentile(serverMs, 0.50))
	st.GapP50Ms = round3(percentile(gapMs, 0.50))
	return st
}

// outcome is a completed request's classification.
type outcome int

const (
	// outcomeOK is a 200 — the join ran.
	outcomeOK outcome = iota
	// outcomeRejected is a 503 — admission control shed the request.
	outcomeRejected
	// outcomeUnprocessable is a 422 — the server admitted the request
	// but the workspace cannot run that join (memory budget, missing
	// structure). It indicts the mix, not the server's capacity, so it
	// must not be lumped in with transport failures and 5xx errors.
	outcomeUnprocessable
	// outcomeError is everything else: transport failure or any other
	// non-200 status.
	outcomeError
)

// classify maps one request's transport error and HTTP status to its
// outcome bucket. A transport error always wins: there is no status
// worth reading when the request never completed.
func classify(err error, status int) outcome {
	if err != nil {
		return outcomeError
	}
	switch status {
	case http.StatusOK:
		return outcomeOK
	case http.StatusServiceUnavailable:
		return outcomeRejected
	case http.StatusUnprocessableEntity:
		return outcomeUnprocessable
	default:
		return outcomeError
	}
}

// percentile returns the q-quantile of sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }

// printTable renders the human-readable summary.
func printTable(w io.Writer, runs []runStat) {
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s %10s %9s %9s %9s %9s %9s %9s %9s\n",
		"target", "requests", "ok", "rejected", "unproc", "errors", "thrpt/s", "p50ms", "p90ms", "p99ms", "p999ms", "maxms", "srv50ms", "gap50ms")
	for _, r := range runs {
		fmt.Fprintf(w, "%-12s %8d %8d %8d %8d %8d %10.1f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			r.Label, r.Requests, r.OK, r.Rejected, r.Unprocessable, r.Errors,
			r.ThroughputPerSec, r.P50Ms, r.P90Ms, r.P99Ms, r.P999Ms, r.MaxMs,
			r.ServerP50Ms, r.GapP50Ms)
	}
}
