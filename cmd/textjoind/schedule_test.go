package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"textjoin"
	"textjoin/internal/iosim"
	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
)

// scheduleSeeds are the schedules TestServingSchedule runs, one after
// another on one server. A failing seed is reproduced by cutting this
// slice down to it.
var scheduleSeeds = []int64{1, 2, 3, 4, 5}

// badQueries are /join requests the server must refuse with 400.
var badQueries = []string{
	"/join?alg=bogus", "/join?lambda=-1", "/join?lambda=x", "/join?weighting=no",
	"/join?mode=bogus", "/join?prefilter=maybe", "/join?recall=1.5", "/join?show=x",
}

// phasesOf is the spans a /join trace holds for each status: a request
// refused before admission never queued, one turned away by admission
// never bound a view, and a failed join never replied.
var phasesOf = map[int][]string{
	http.StatusOK:                  {"request", "queue", "snapshot", "exec", "io", "reply"},
	http.StatusBadRequest:          {"request"},
	http.StatusUnprocessableEntity: {"request"},
	http.StatusServiceUnavailable:  {"request", "queue"},
	http.StatusInternalServerError: {"request", "queue", "snapshot", "exec", "io"},
}

// answer is one /join as the client saw it.
type answer struct {
	code   int
	body   []byte
	header http.Header
	reply  joinReply
	trace  *reqtrace.TraceData
	client time.Duration
}

// attr is an attribute of the answer's trace; each key is set on one
// span only.
func (a answer) attr(key string) string {
	for _, sp := range a.trace.Spans {
		for _, at := range sp.Attrs {
			if at.Key == key {
				return at.Value
			}
		}
	}
	return ""
}

// harness drives one server through the schedules and keeps the tallies
// every counter and SLO window is checked against.
type harness struct {
	t    *testing.T
	s    *server
	h    http.Handler
	rng  *rand.Rand
	pool []string
	// ref is each pool request answered serially on the idle server.
	ref map[string]answer
	// held is the admission budget the test itself holds.
	held int64

	mu sync.Mutex
	// The schedule's tallies; slow counts answers that took at least
	// fast, the largest latency bucket bound within the objective's
	// threshold: only those can land in a bucket the objective counts bad.
	ok, failed, rejected, joins, slow int64
	fast                              time.Duration
	outerDocs                         map[string]int64
}

// join sends one /join and checks what any answer of its status must
// hold; errText, when set, is the error a failed request must give.
func (hs *harness) join(path string, want int, errText string) answer {
	t := hs.t
	begin := time.Now()
	rec := serve(hs.h, path)
	a := answer{code: rec.Code, body: rec.Body.Bytes(), header: rec.Header(), client: time.Since(begin)}
	hs.mu.Lock()
	hs.joins++
	if a.client >= hs.fast {
		hs.slow++
	}
	switch a.code {
	case http.StatusOK:
		hs.ok++
	case http.StatusServiceUnavailable:
		hs.rejected++
	default:
		hs.failed++
	}
	hs.mu.Unlock()
	if a.code != want {
		t.Errorf("GET %s: status %d, want %d: %.200s", path, a.code, want, a.body)
		return a
	}
	traceID, _, err := reqtrace.ParseTraceparent(a.header.Get(reqtrace.TraceparentHeader))
	if a.trace = hs.s.recorder.Lookup(traceID.String()); err != nil || a.trace == nil {
		t.Errorf("GET %s: Traceparent %q names no recorded trace", path, a.header.Get(reqtrace.TraceparentHeader))
		return a
	}
	phases := map[string]bool{}
	for _, sp := range a.trace.Spans {
		phases[sp.Phase] = true
	}
	for _, p := range phasesOf[want] {
		if !phases[p] {
			t.Errorf("GET %s (%d): trace lacks a %s span", path, want, p)
		}
	}
	if want != http.StatusOK {
		var body map[string]any
		if err := json.Unmarshal(a.body, &body); err != nil || body["results"] != nil || body["error"] == nil ||
			errText != "" && body["error"] != errText {
			t.Errorf("GET %s (%d): a failed request answered %.200s, want error %q alone", path, want, a.body, errText)
		}
		if want == http.StatusServiceUnavailable && a.header.Get("Retry-After") == "" {
			t.Errorf("GET %s: 503 without Retry-After", path)
		}
		if phases["queue"] != (want != http.StatusBadRequest && want != http.StatusUnprocessableEntity) {
			t.Errorf("GET %s (%d): queue span present = %v", path, want, phases["queue"])
		}
		return a
	}
	if err := json.Unmarshal(a.body, &a.reply); err != nil {
		t.Errorf("GET %s: %v", path, err)
		return a
	}
	if r := a.reply; r.QueueSeconds+r.ExecSeconds > r.WallSeconds || r.WallSeconds > a.client.Seconds() {
		t.Errorf("GET %s: queue %vs + exec %vs, wall %vs, client %v: want queue+exec ≤ wall ≤ client",
			path, r.QueueSeconds, r.ExecSeconds, r.WallSeconds, a.client)
	}
	hs.mu.Lock()
	hs.outerDocs[strings.ToLower(a.reply.Algorithm)] += a.reply.OuterDocs
	hs.mu.Unlock()
	if ref, ok := hs.ref[path]; ok {
		if got, want := a.attr("result.hash"), ref.attr("result.hash"); got != want || got == "" {
			t.Errorf("GET %s: result.hash %q, serially %q", path, got, want)
		}
		if !reflect.DeepEqual(deterministic(a.reply), deterministic(ref.reply)) {
			t.Errorf("GET %s: reply diverges from the serial one:\nserial: %+v\nnow:    %+v", path, ref.reply, a.reply)
		}
	}
	return a
}

// pick draws one request from the pool.
func (hs *harness) pick() string { return hs.pool[hs.rng.Intn(len(hs.pool))] }

// hold charges the admission budget from the test, as a running join
// would, leaving free bytes of it.
func (hs *harness) hold(free int64) {
	hs.held = hs.s.adm.budget - free
	if _, err := hs.s.adm.admit(hs.held); err != nil {
		hs.t.Fatal(err)
	}
}

func (hs *harness) unhold() {
	hs.s.adm.release(hs.held)
	hs.held = 0
}

// cost is the bytes admission charges the request: its plan's.
func (hs *harness) cost(path string) int64 {
	n, err := strconv.ParseInt(hs.ref[path].attr("queue.cost_bytes"), 10, 64)
	if err != nil {
		hs.t.Fatalf("%s: %v", path, err)
	}
	return hs.s.adm.clamp(n)
}

// group sends two to six drawn joins at once, with both scrapes in
// flight on a coin toss.
func (hs *harness) group() {
	paths := make([]string, 2+hs.rng.Intn(5))
	for i := range paths {
		paths[i] = hs.pick()
	}
	hs.together(paths, hs.rng.Intn(2) == 0)
}

// together sends the joins all at once, and with scrapes both scrapes
// while they run.
func (hs *harness) together(paths []string, scrapes bool) {
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for _, path := range paths {
		run(func() { hs.join(path, http.StatusOK, "") })
	}
	if scrapes {
		run(hs.scrapeMetrics)
		run(hs.scrapeRequests)
	}
	wg.Wait()
}

// scrapeMetrics checks an exposition taken while joins run.
func (hs *harness) scrapeMetrics() {
	rec := serve(hs.h, "/metrics")
	if err := metrics.Lint(rec.Body.Bytes()); rec.Code != http.StatusOK || err != nil {
		hs.t.Errorf("/metrics in flight: status %d: %v", rec.Code, err)
	}
}

// scrapeRequests reads the flight recorder while joins run: the listing
// decodes, and a trace it names is served whole.
func (hs *harness) scrapeRequests() {
	var list struct {
		Slowest []struct {
			TraceID string `json:"trace_id"`
		} `json:"slowest"`
	}
	rec := serve(hs.h, "/debug/requests?format=json")
	if err := json.Unmarshal(rec.Body.Bytes(), &list); rec.Code != http.StatusOK || err != nil {
		hs.t.Errorf("/debug/requests in flight: status %d: %v", rec.Code, err)
		return
	}
	for _, row := range list.Slowest[:min(len(list.Slowest), 4)] {
		rec := serve(hs.h, "/debug/requests/"+row.TraceID+"?format=json")
		if err := reqtrace.Validate(rec.Body.Bytes()); rec.Code != http.StatusOK || err != nil {
			hs.t.Errorf("trace %s in flight: status %d: %v", row.TraceID, rec.Code, err)
		}
	}
}

// parked waits until n requests wait in the admission queue.
func (hs *harness) parked(n int) {
	for {
		hs.s.adm.mu.Lock()
		queued := len(hs.s.adm.queue)
		hs.s.adm.mu.Unlock()
		if queued == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// queueFull parks two requests behind budget the test holds (some or
// all of it), turns the next away because the queue is full, then frees
// the budget so both parked requests run.
func (hs *harness) queueFull() {
	first, second, next := hs.pick(), hs.pick(), hs.pick()
	hs.hold(hs.rng.Int63n(hs.cost(first)))
	var wg sync.WaitGroup
	for i, path := range []string{first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs.join(path, http.StatusOK, "")
		}()
		hs.parked(i + 1)
	}
	hs.join(next, http.StatusServiceUnavailable, errQueueFull.Error())
	hs.unhold()
	wg.Wait()
}

// queueDeadline parks a request the free budget cannot hold and, behind
// it, one that fits: the head gives up at its deadline, and the one
// behind is admitted then, well before its own.
func (hs *harness) queueDeadline() {
	head, next := hs.pick(), hs.pick()
	for hs.cost(head) <= hs.cost(next) {
		head, next = hs.pick(), hs.pick()
	}
	hs.hold(hs.cost(next) + hs.rng.Int63n(hs.cost(head)-hs.cost(next)))
	wait := hs.s.adm.maxWait
	hs.s.adm.maxWait = 100 * time.Millisecond
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.join(head, http.StatusServiceUnavailable, errQueueWait.Error())
	}()
	hs.parked(1)
	// Arrive half a deadline after the head: the property is about two
	// deadlines, so the gap between them is wall time, not an event.
	time.Sleep(hs.s.adm.maxWait / 2)
	hs.join(next, http.StatusOK, "")
	<-done
	hs.s.adm.maxWait = wait
	hs.unhold()
}

// badRequest sends a malformed join.
func (hs *harness) badRequest() {
	hs.join(badQueries[hs.rng.Intn(len(badQueries))], http.StatusBadRequest, "")
}

// unrunnable sends a join the memory budget cannot hold: refused at plan
// time, before admission.
func (hs *harness) unrunnable() {
	mem := hs.s.cfg.MemoryPages
	hs.s.cfg.MemoryPages = 1
	hs.join([]string{"/join?alg=vvm&show=0", "/join?alg=hhnl&show=3", "/join?alg=hvnl&show=0"}[hs.rng.Intn(3)],
		http.StatusUnprocessableEntity, "")
	hs.s.cfg.MemoryPages = mem
}

// fault fails one page read in the middle of a join; every pool request
// reads more than one page.
func (hs *harness) fault() {
	path := hs.pick()
	r := hs.ref[path].reply
	hs.s.ws.Disk().InjectFaults(iosim.FaultPlan{FailAfterReads: 1 + hs.rng.Int63n(r.SeqReads+r.RandReads-1)})
	a := hs.join(path, http.StatusInternalServerError, "")
	hs.s.ws.Disk().InjectFaults(iosim.FaultPlan{})
	var body map[string]string
	if json.Unmarshal(a.body, &body) == nil && !strings.Contains(body["error"], iosim.ErrInjected.Error()) {
		hs.t.Errorf("GET %s: failed with %q, not the injected fault", path, body["error"])
	}
}

// settled checks what must hold between steps, when nothing is in flight.
func (hs *harness) settled(step string) {
	t, s := hs.t, hs.s
	t.Helper()
	s.adm.mu.Lock()
	inUse, queued := s.adm.inUse, len(s.adm.queue)
	s.adm.mu.Unlock()
	if inUse != hs.held || queued != 0 {
		t.Errorf("after %s: admission holds %d bytes with %d queued; the test holds %d", step, inUse, queued, hs.held)
	}
	if n := s.ws.Disk().OpenViews(); n != 0 {
		t.Errorf("after %s: %d view(s) open", step, n)
	}
	series := scrapeSeries(t, hs.h)
	var seq, rand int64
	for name, v := range series {
		switch {
		case strings.HasPrefix(name, "textjoin_iosim_file_seq_reads_total{"):
			seq += v
		case strings.HasPrefix(name, "textjoin_iosim_file_rand_reads_total{"):
			rand += v
		}
	}
	if disk := s.ws.Disk().Stats(); seq != disk.SeqReads || rand != disk.RandReads {
		t.Errorf("after %s: /metrics page reads sum to seq=%d rand=%d, the disk's merged ledger is %v", step, seq, rand, disk)
	}
	for name, want := range map[string]int64{
		"textjoin_http_join_ok_total":  hs.ok,
		"textjoin_http_join_err_total": hs.failed,
		"textjoin_http_rejected_total": hs.rejected,
	} {
		if got := series[name]; got != want {
			t.Errorf("after %s: %s = %d, the schedule answered %d", step, name, got, want)
		}
	}
	for alg, n := range hs.outerDocs {
		if got := series["textjoin_join_"+alg+"_outer_docs_total"]; got != n {
			t.Errorf("after %s: textjoin_join_%s_outer_docs_total = %d, the replies sum to %d", step, alg, got, n)
		}
	}
	statuses := s.slo.Collect()
	if len(statuses) != 2 {
		t.Errorf("after %s: %d objectives, want availability and latency", step, len(statuses))
	}
	for _, st := range statuses {
		switch st.Name {
		case "availability":
			if st.Good != hs.ok || st.Bad != hs.failed+hs.rejected {
				t.Errorf("after %s: availability window good %d bad %d, want %d and %d",
					step, st.Good, st.Bad, hs.ok, hs.failed+hs.rejected)
			}
		case "latency":
			if st.Good+st.Bad != hs.joins || st.Bad > hs.slow {
				t.Errorf("after %s: latency window good %d bad %d, want %d requests, at most %d slow",
					step, st.Good, st.Bad, hs.joins, hs.slow)
			}
		default:
			t.Errorf("unexpected objective %q", st.Name)
		}
	}
	for _, d := range append(s.recorder.Recent(), s.recorder.Slowest()...) {
		if err := reqtrace.ValidateData(d); err != nil {
			t.Errorf("after %s: recorded trace %s: %v", step, d.TraceID, err)
		}
	}
}

// step is one step of a schedule.
type step struct {
	name string
	run  func()
}

// do runs the steps in order, checking after each that the server
// settled; where names the schedule in failure messages.
func (hs *harness) do(where string, steps ...step) {
	for _, st := range steps {
		st.run()
		hs.settled(where + st.name)
		if hs.t.Failed() {
			hs.t.FailNow()
		}
	}
}

// newHarness builds a small server with a two-slot admission queue and
// answers every pool request on it serially while it is idle: the
// reference later answers are held to. The pool is every /join kind, the
// serve_mix kinds with their rows, and all three exact families under
// every weighting, prefilter on and off.
func newHarness(t *testing.T) *harness {
	cfg := defaultConfig()
	cfg.Scale = 512
	cfg.QueueLen = 2
	cfg.RecorderCap = 512
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := &harness{t: t, s: s, h: s.handler(), rng: rand.New(rand.NewSource(1)), ref: map[string]answer{}, outerDocs: map[string]int64{}}
	for _, b := range metrics.DefaultLatencyBuckets {
		if b <= cfg.SLOLatency.Nanoseconds() {
			hs.fast = time.Duration(b)
		}
	}
	hs.pool = append([]string(nil), joinKinds...)
	for _, k := range serveMixKinds {
		hs.pool = append(hs.pool, "/join?"+k.query+"&show=100000")
	}
	hs.pool = append(append(hs.pool, joinPaths()...), "/join?alg=auto&recall=0.5&show=0", "/join?alg=auto&prefilter=on&show=0")
	hs.do("", step{"the serial runs", func() {
		for _, path := range hs.pool {
			hs.ref[path] = hs.join(path, http.StatusOK, "")
		}
	}})
	return hs
}

// TestServingSchedule drives one server, in process, through a schedule
// drawn from each seed: every step kind once in a drawn order, each
// followed by a concurrent group. The step kinds are a group of /join
// kinds with the scrapes in flight, a 400, a plan-time 422, admission
// 503s (queue full and queue deadline) behind budget the test holds, and
// a page read that fails mid-join into a 500. Every answer is checked as
// it arrives — its status, its trace and phases, a 200's reply and result
// hash against the same request answered serially on the idle server, a
// failure's empty body — and after every step the server must have
// settled: admission back to what the test holds, no view open, /metrics
// Lint-clean with its page reads summing to the disk's ledger, its
// counters and both SLO windows equal to the schedule's tallies, every
// recorded trace well formed. At the end no goroutine is left behind.
func TestServingSchedule(t *testing.T) {
	before := runtime.NumGoroutine()
	hs := newHarness(t)
	steps := []step{
		{"group", hs.group}, {"400", hs.badRequest}, {"422", hs.unrunnable},
		{"queue full", hs.queueFull}, {"queue deadline", hs.queueDeadline}, {"fault", hs.fault},
	}
	for _, seed := range scheduleSeeds {
		hs.rng = rand.New(rand.NewSource(seed))
		for _, i := range hs.rng.Perm(len(steps)) {
			hs.do("seed "+strconv.FormatInt(seed, 10)+" ", steps[i], steps[0])
		}
	}
	t.Logf("%d /join requests: %d ok, %d failed, %d rejected", hs.joins, hs.ok, hs.failed, hs.rejected)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentJoinsMatchSerial: the whole pool sent at once answers,
// request for request, what each answered alone on the idle server —
// results, I/O stats, costs and result hash — and leaves no view open.
func TestConcurrentJoinsMatchSerial(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"the pool at once", func() { hs.together(hs.pool, false) }})
}

// TestMetricsIOLedgerUnderConcurrency: after the pool is sent twice at
// once and a join fails mid-way, the per-file page-read series on
// /metrics sum to the disk's merged ledger, and each algorithm's
// outer_docs series to its replies.
func TestMetricsIOLedgerUnderConcurrency(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"the pool twice at once", func() { hs.together(append(hs.pool, hs.pool...), false) }},
		step{"fault", hs.fault})
}

// TestConcurrentScrapes: /metrics and /debug/requests scraped while the
// whole pool runs are Lint-clean and decode, and the traces the listing
// names are served whole.
func TestConcurrentScrapes(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"the pool with scrapes", func() { hs.together(hs.pool, true) }})
}

// TestFlightRecorderUnderLoad: under admission pressure — a full queue,
// a deadline, then the pool with scrapes in flight — every answer's
// Traceparent names a recorded, well-formed trace with its status's
// phases.
func TestFlightRecorderUnderLoad(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"queue full", hs.queueFull}, step{"queue deadline", hs.queueDeadline},
		step{"the pool with scrapes", func() { hs.together(hs.pool, true) }})
}

// TestQueueFullRejects: with the budget held and the queue full, a join
// is turned away with 503 and a Retry-After hint; once the budget is
// free the parked joins run.
func TestQueueFullRejects(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"queue full", hs.queueFull})
}

// TestQueueWaitDeadline: a queued join that never fits is rejected with
// 503 at its deadline, and one behind it that fits is admitted then.
func TestQueueWaitDeadline(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"queue deadline", hs.queueDeadline})
}

// TestSLOCountsServedTraffic: the objectives read the series the server
// writes. After a 400, a 422, a 500 and queue-full 503, the availability
// window holds the 200s as good and the rest as bad, and the latency
// window every /join sent.
func TestSLOCountsServedTraffic(t *testing.T) {
	hs := newHarness(t)
	hs.do("", step{"400", hs.badRequest}, step{"422", hs.unrunnable}, step{"fault", hs.fault},
		step{"queue full", hs.queueFull})
}

// TestServedJoinReusesItsRows: once a kind has run, a /join of each
// serve_mix kind at its λ of 20, rows and all, allocates at most 24 KiB
// and at most a quarter of the bytes its plan charges for its rows — a
// Result of 32 bytes and λ matches of 16 per outer document. The join
// fills the row set the last request gave back, and the reply is encoded
// in that request's buffer; what is left is the request's trace, plan and
// header. A join whose rows outgrow what an idle set may keep (λ = N1
// here) is the exception: its set is not given back, so a repeat of it
// allocates its rows again. Each request is judged by the least of five
// after one to warm it, so a collection that freed the idle set between
// two requests, or a formatter the race detector's sync.Pool dropped,
// spoils one of them only.
func TestServedJoinReusesItsRows(t *testing.T) {
	hs := newHarness(t)
	w := &brokenWriter{header: http.Header{}, limit: math.MaxInt}
	allocated := func(path string) int64 {
		least := uint64(math.MaxUint64)
		for range 5 {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			clear(w.header)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			hs.h.ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return int64(least)
	}
	for _, k := range serveMixKinds {
		path := "/join?" + k.query + "&lambda=20&show=100000"
		warm := hs.join(path, http.StatusOK, "").reply
		rows := warm.OuterDocs * int64(32+16*warm.Lambda)
		least := allocated(path)
		t.Logf("%-15s %d rows charged %d bytes; a request allocates %d", k.name, warm.OuterDocs, rows, least)
		if least > 24<<10 || 4*least > rows {
			t.Errorf("%s: a warm request allocates %d bytes, want at most 24 KiB and a quarter of its rows' %d", k.name, least, rows)
		}
	}
	huge := "/join?alg=hvnl&lambda=1000000&show=0"
	hs.join(huge, http.StatusOK, "")
	rows := setRowBytes(textjoin.Inputs{Outer: hs.s.c2, Inner: hs.s.c1}, 1000000)
	least := allocated(huge)
	t.Logf("λ = N1: rows %d bytes; a request allocates %d", rows, least)
	if rows <= maxIdleRowBytes || least < rows {
		t.Errorf("λ = N1: a repeated request allocates %d bytes, want at least its rows' %d, more than an idle set keeps (%d)",
			least, rows, maxIdleRowBytes)
	}
	if w.failed {
		t.Fatal("a reply write failed")
	}
}
