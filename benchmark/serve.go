package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"textjoin"
)

// serveMix sends six kinds of join through textjoind from two
// closed-loop clients. It runs the same join layers as the in-process
// workloads in the way they are not run there: with the telemetry
// collector and the request tracer attached, inputs bound to a view, two
// joins in flight, the parallel variants, the planner, admission and a
// 1 MB JSON response on the path, and a buffer so large that HHNL is one
// batch, HVNL hits its cache every time and VVM is one partition. A gain
// on a tight-budget workload that costs the instrumented, concurrent or
// all-hit path shows here. It is the only workload in which lsh,
// signature, costmodel and textjoind run.
var serveMix = spec{
	name: "serve_mix", setupRuns: 9, passes: 2, nominalMs: 840,
	prepare: buildTextjoind,
	setup: func(seed int64) (fixture, error) {
		return bootTextjoind(seed)
	},
}

const serveScale = 128

// serveKind is one request shape and the in-process join that must give
// the same answer.
type serveKind struct {
	kind
	query     string
	weighting textjoin.Weighting
	// join runs the reference; the parallel variants are pinned to
	// their serial algorithm's results and statistics, so the reference
	// is the serial join.
	join func(w *world, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, error)
}

func joinWith(alg textjoin.Algorithm) func(*world, textjoin.Inputs, textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, error) {
	return func(_ *world, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, error) {
		return textjoin.Join(alg, in, o)
	}
}

var serveKinds = []serveKind{
	{kind{name: "auto"}, "alg=auto", textjoin.RawTF,
		func(_ *world, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, error) {
			res, st, _, err := textjoin.JoinIntegrated(in, o)
			return res, st, err
		}},
	{kind{name: "hhnl_w2"}, "alg=hhnl&workers=2", textjoin.RawTF, joinWith(textjoin.HHNL)},
	{kind{name: "hvnl"}, "alg=hvnl&weighting=tfidf", textjoin.TFIDF, joinWith(textjoin.HVNL)},
	{kind{name: "vvm_w2"}, "alg=vvm&weighting=cosine&workers=2", textjoin.Cosine, joinWith(textjoin.VVM)},
	{kind{name: "lsh"}, "mode=lsh", textjoin.RawTF,
		func(w *world, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, error) {
			o.LSH = w.lsh1
			return textjoin.Join(textjoin.LSH, in, o)
		}},
	{kind{name: "hhnl_prefilter"}, "alg=hhnl&prefilter=on", textjoin.RawTF,
		func(w *world, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, error) {
			o.Prefilter = &textjoin.Prefilter{Inner: w.sig1, Outer: w.sig2}
			return textjoin.Join(textjoin.HHNL, in, o)
		}},
	{kind{name: "hhnl", solo: true}, "alg=hhnl", textjoin.RawTF, joinWith(textjoin.HHNL)},
	{kind{name: "vvm", solo: true}, "alg=vvm&weighting=cosine", textjoin.Cosine, joinWith(textjoin.VVM)},
}

// buildDir is where the harness keeps what it builds and writes, inside
// the checkout.
func buildDir() string { return filepath.Join(repoRoot, ".bench_build") }

func textjoindPath() string { return filepath.Join(buildDir(), "bin", "textjoind") }

func buildTextjoind() error {
	cmd := exec.Command("go", "build", "-o", textjoindPath(), "./cmd/textjoind")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building textjoind: %w\n%s", err, out)
	}
	return nil
}

// served is a running textjoind and the reference its answers are
// checked against.
type served struct {
	seed   int64
	cmd    *exec.Cmd
	base   string
	client *http.Client

	once     sync.Once
	refErr   error
	ref      *world
	expected []expectation
}

// expectation is the in-process answer for one kind.
type expectation struct {
	hash  uint64
	stats *textjoin.JoinStats
	v     verdict
}

// bootTextjoind starts the server on a free port and returns once
// /healthz answers 200.
func bootTextjoind(seed int64) (*served, error) {
	cmd := exec.Command(textjoindPath(), "-addr", "127.0.0.1:0",
		"-scale", strconv.Itoa(serveScale), "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	// The server dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &served{seed: seed, cmd: cmd, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "textjoind: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.close()
			return nil, fmt.Errorf("textjoind exited before listening")
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.close()
		return nil, fmt.Errorf("textjoind did not listen within 60s")
	}
	if _, err := s.get("/healthz"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close kills the server and waits until it has gone.
func (s *served) close() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // killed is the expected outcome
}

func (s *served) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

func (s *served) kinds() []kind {
	ks := make([]kind, len(serveKinds))
	for i, k := range serveKinds {
		ks[i] = k.kind
	}
	return ks
}

// clients is nproc on the box the benchmark was sized on; textjoind's
// parallel kinds ask for as many workers.
func (s *served) clients() int { return 2 }

func (s *served) world() *world { return s.ref }

func (s *served) stats(kind int) *textjoin.JoinStats { return s.expected[kind].stats }

// reference builds textjoind's workspace in this process from the same
// seed and runs every kind once through a view, as the server does, and
// checks each answer against brute force.
func (s *served) reference() error {
	w, err := buildWorld(serveScale, s.seed, structures{inv1: true, inv2: true, sidecars: true})
	if err != nil {
		return err
	}
	s.ref = w
	truths := map[textjoin.Weighting]*truth{}
	for _, k := range serveKinds {
		exp, err := s.expect(w, k, truths)
		if err != nil {
			return fmt.Errorf("reference %s: %w", k.name, err)
		}
		s.expected = append(s.expected, exp)
	}
	return nil
}

func (s *served) expect(w *world, k serveKind, truths map[textjoin.Weighting]*truth) (expectation, error) {
	v := w.ws.Snapshot()
	defer v.Close()
	in, err := w.inputs().WithView(v)
	if err != nil {
		return expectation{}, err
	}
	results, st, err := k.join(w, in, textjoin.Options{Lambda: lambda, Weighting: k.weighting})
	if err != nil {
		return expectation{}, err
	}
	t := truths[k.weighting]
	if t == nil {
		if t, err = bruteForce(w.c2, w.c1, k.weighting, lambda); err != nil {
			return expectation{}, err
		}
		truths[k.weighting] = t
	}
	return expectation{resultHash(results), st, t.check(results, st.Algorithm != textjoin.LSH)}, nil
}

// joinReply is the part of textjoind's /join response the harness reads.
type joinReply struct {
	OuterDocs    int64   `json:"outer_docs"`
	SeqReads     int64   `json:"seq_reads"`
	RandReads    int64   `json:"rand_reads"`
	Cost         float64 `json:"cost"`
	WallSeconds  float64 `json:"wall_seconds"`
	QueueSeconds float64 `json:"queue_seconds"`
	ExecSeconds  float64 `json:"exec_seconds"`
	Prefilter    struct {
		PagesSkipped int64 `json:"pages_skipped"`
		FalsePasses  int64 `json:"false_passes"`
	} `json:"prefilter"`
	LSH struct {
		Candidates   int64 `json:"candidates"`
		PagesSkipped int64 `json:"pages_skipped"`
	} `json:"lsh"`
	Results []struct {
		Outer   uint32 `json:"outer"`
		Matches []struct {
			Doc uint32  `json:"doc"`
			Sim float64 `json:"sim"`
		} `json:"matches"`
	} `json:"results"`
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *served) do(rec *recorder, op string, kind int) sample {
	s.once.Do(func() { s.refErr = s.reference() })
	if s.refErr != nil {
		return sample{kind: kind, err: s.refErr}
	}
	root := rec.start(op, -1, "op."+serveKinds[kind].name)
	defer rec.end(root)
	call := rec.start(op, root, "http.roundtrip")
	t0 := time.Now()
	resp, err := s.client.Get(s.base + "/join?" + serveKinds[kind].query + "&lambda=" + strconv.Itoa(lambda) + "&show=100000")
	rec.end(call)
	if err != nil {
		return sample{kind: kind, ms: time.Since(t0).Seconds() * 1e3, err: err}
	}
	defer resp.Body.Close()
	read := rec.start(op, root, "http.read+decode")
	body := &countingReader{r: resp.Body}
	var reply joinReply
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(body).Decode(&reply)
	} else {
		var msg []byte
		msg, err = io.ReadAll(io.LimitReader(body, 200))
		if err == nil {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, msg)
		}
	}
	rec.end(read)
	sm := sample{
		kind: kind, ms: time.Since(t0).Seconds() * 1e3, err: err, respBytes: body.n,
		rejected: resp.StatusCode == http.StatusServiceUnavailable,
	}
	if err != nil {
		return sm
	}
	check := rec.start(op, root, "harness.check")
	defer rec.end(check)
	sm.docs, sm.cost, sm.seqReads, sm.randReads = reply.OuterDocs, reply.Cost, reply.SeqReads, reply.RandReads
	sm.wallMs, sm.queueMs, sm.execMs = reply.WallSeconds*1e3, reply.QueueSeconds*1e3, reply.ExecSeconds*1e3
	sm.prefilter.PagesSkipped, sm.prefilter.FalsePasses = reply.Prefilter.PagesSkipped, reply.Prefilter.FalsePasses
	sm.lsh.Candidates, sm.lsh.PagesSkipped = reply.LSH.Candidates, reply.LSH.PagesSkipped
	results := make([]textjoin.Result, len(reply.Results))
	for i, r := range reply.Results {
		results[i].Outer = r.Outer
		results[i].Matches = make([]textjoin.Match, len(r.Matches))
		for j, m := range r.Matches {
			results[i].Matches[j] = textjoin.Match{Doc: m.Doc, Sim: m.Sim}
		}
	}
	exp := s.expected[kind]
	sm.v = exp.v
	switch st := exp.stats; {
	case resultHash(results) != exp.hash:
		sm.v.bad = "results differ from the in-process join on the same seed"
	case reply.Cost != st.Cost || reply.SeqReads != st.IO.SeqReads || reply.RandReads != st.IO.RandReads:
		sm.v.bad = fmt.Sprintf("I/O %d seq %d rand cost %v, in-process %d seq %d rand cost %v",
			reply.SeqReads, reply.RandReads, reply.Cost, st.IO.SeqReads, st.IO.RandReads, st.Cost)
	}
	return sm
}

// procStat is the fields of /proc/<pid>/stat after the parenthesised
// command name; field i of the line is at index i-3.
func (s *served) procStat() ([]string, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return nil, err
	}
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 22 {
		return nil, fmt.Errorf("short /proc/%s/stat", pid)
	}
	return f, nil
}

// cpuMs is textjoind's utime + stime, fields 14 and 15, in ticks of
// 1/100 s.
func (s *served) cpuMs() (float64, error) {
	f, err := s.procStat()
	if err != nil {
		return 0, err
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) * 10, nil
}

// memory reads textjoind's allocation and collector totals from the
// MemStats block that ends /debug/pprof/heap?debug=1, and its resident
// size from /proc.
func (s *served) memory() (memory, error) {
	f, err := s.procStat()
	if err != nil {
		return memory{}, err
	}
	rssPages, _ := strconv.ParseFloat(f[21], 64)
	heap, err := s.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return memory{}, err
	}
	mem := memStatsBlock(string(heap))
	m := memory{
		allocBytes: mem.num("TotalAlloc"),
		gcCycles:   mem.num("NumGC"),
		rssMB:      rssPages * float64(os.Getpagesize()) / (1 << 20),
	}
	// PauseNs is a ring of the last 256 pauses; the total since start
	// is not in the block, so sum the ring while it still holds them all
	// and scale it afterwards.
	var ring float64
	for _, p := range strings.Fields(strings.Trim(mem["PauseNs"], "[]")) {
		ns, _ := strconv.ParseFloat(p, 64)
		ring += ns
	}
	if m.gcCycles > 256 {
		ring *= m.gcCycles / 256
	}
	m.gcPauseMs = ring / 1e6
	return m, nil
}

// memStats is the "# Name = value" block of a debug=1 heap profile.
type memStats map[string]string

func memStatsBlock(profile string) memStats {
	m := memStats{}
	for _, line := range strings.Split(profile, "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			if name, val, ok := strings.Cut(rest, " = "); ok {
				m[name] = val
			}
		}
	}
	return m
}

func (m memStats) num(name string) float64 {
	v, _ := strconv.ParseFloat(m[name], 64)
	return v
}

func (s *served) probe() (textjoin.Reader, textjoin.Options) {
	return s.ref.c2, textjoin.Options{Lambda: lambda}
}

// serverMetricUnits lists, in print order, the per-layer metrics only
// serve_mix fills.
var serverMetricUnits = func() []metric {
	ms := []metric{
		{name: "core.auto_regret", unit: "ratio"},
		{name: "core.parallel_speedup.hhnl", unit: "ratio"},
		{name: "core.parallel_speedup.vvm", unit: "ratio"},
		{name: "textjoind.queue_ms_p50", unit: "ms"},
		{name: "textjoind.exec_ms_p50", unit: "ms"},
		{name: "textjoind.gap_ms_p50", unit: "ms"},
		{name: "textjoind.resp_kb_per_op", unit: "KiB"},
		{name: "textjoind.rejected_frac", unit: "fraction"},
		{name: "textjoind.rss_mb", unit: "MiB"},
	}
	for _, k := range serveKinds {
		if !k.solo {
			ms = append(ms,
				metric{name: "textjoind.op_ms_p50." + k.name, unit: "ms"},
				metric{name: "textjoind.exec_ms_p50." + k.name, unit: "ms"})
		}
	}
	return append(ms, metric{name: "metrics.scrape_ms", unit: "ms"})
}()

// soloRuns is how many requests of a kind the traced run sends one at a
// time to time that kind with the other core idle.
const soloRuns = 5

func (s *served) serverMetrics(all []sample) (map[string]float64, []sample, error) {
	execOf := func(sm sample) float64 { return sm.execMs }
	ops := float64(len(all))
	var rejected, respKB float64
	for _, sm := range all {
		respKB += float64(sm.respBytes) / 1024
		if sm.rejected {
			rejected++
		}
	}
	c, err := s.memory()
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"textjoind.queue_ms_p50": median(pick(all, -1, func(sm sample) float64 { return sm.queueMs })),
		"textjoind.exec_ms_p50":  median(pick(all, -1, execOf)),
		// Client latency minus the server's own wall time: transport
		// and JSON encoding and decoding.
		"textjoind.gap_ms_p50":     median(pick(all, -1, func(sm sample) float64 { return sm.ms - sm.wallMs })),
		"textjoind.resp_kb_per_op": respKB / ops,
		"textjoind.rejected_frac":  rejected / ops,
		"textjoind.rss_mb":         c.rssMB,
	}
	fastest := 0.0
	for k, sk := range serveKinds {
		if sk.solo {
			continue
		}
		exec := median(pick(all, k, execOf))
		vals["textjoind.op_ms_p50."+sk.name] = median(pick(all, k, latencyOf))
		vals["textjoind.exec_ms_p50."+sk.name] = exec
		if sk.name != "auto" && sk.name != "lsh" && (fastest == 0 || exec < fastest) {
			fastest = exec
		}
	}
	// auto against the fastest exact kind a caller could have named.
	vals["core.auto_regret"] = ratio(vals["textjoind.exec_ms_p50.auto"], fastest)

	// The facade's serial time over its workers=2 time, each sent alone.
	var solo []sample
	soloExec := map[string]float64{}
	for k, sk := range serveKinds {
		switch sk.name {
		case "hhnl", "hhnl_w2", "vvm", "vvm_w2":
			first := len(solo)
			for i := 0; i < soloRuns; i++ {
				solo = append(solo, s.do(nil, "solo", k))
			}
			soloExec[sk.name] = median(pick(solo[first:], -1, execOf))
		}
	}
	vals["core.parallel_speedup.hhnl"] = ratio(soloExec["hhnl"], soloExec["hhnl_w2"])
	vals["core.parallel_speedup.vvm"] = ratio(soloExec["vvm"], soloExec["vvm_w2"])

	t0 := time.Now()
	if _, err := s.get("/metrics"); err != nil {
		return nil, nil, err
	}
	vals["metrics.scrape_ms"] = time.Since(t0).Seconds() * 1e3
	return vals, solo, nil
}
