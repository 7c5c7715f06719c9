GO ?= go

.PHONY: build test verify fuzz-smoke race perf perf-aa trace-smoke obs-smoke bench-json bench-load smoke-bin loadgen-smoke slo-smoke lint lint-report

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# verify is the CI gate for the concurrent join paths: vet everything,
# run the in-repo static-analysis suite (cmd/lintcheck, six analyzers
# over types loaded from the compiler's export data: map-iteration
# determinism, wall-clock hygiene, nil-receiver guards, dropped errors,
# plus the CFG-based resource-leak (trace spans included) and
# mutex-hygiene rules — fails on any finding or unexplained lint:ignore;
# a mutex copied by value is go vet's finding, not the suite's, which is
# why vet stays ahead of lintcheck here; the package DAG — its program
# rows included: a cmd/ or examples/ package reaches the storage and join
# stack through the facade only — is internal/analysis's arch test, part
# of go test), then race-check the packages that run concurrently (in
# internal/core the joins run concurrently on views of one disk, each on
# its caller's goroutine), the accumulator layer the joins share, the entry cache HVNL
# drives and the inverted file and paged store under it (ReadSpan hands
# concurrent views aliases of the shared page images), the term tables
# concurrent views read once memoized (B+tree image, document frequencies,
# idf and norms, and the scorer that holds them), the telemetry
# collector whose counters and histograms they all add to, the request
# tracer whose span tree is the only timing any of them takes and the
# flight recorder that keeps the finished trees, the SLO engine computing
# error budgets over the collector, and the observability server that
# scrapes both during in-flight joins. The core run includes the differential harness
# (collector + trace on/off invariance, concurrent snapshots). It
# finishes with the observability smokes: the self-driving textjoind
# endpoint check, the load-generator gate, the SLO/error-budget gate, the
# command-line run's exposition and trace piped into tracecheck, the
# page-read grid checked against its baseline, and a short fuzz of every
# decoder. benchmark/ is a module of its own that root ./... patterns
# never reach, so it is vetted and tested by name: a facade rename must
# not break it unnoticed.
verify: obs-smoke loadgen-smoke slo-smoke trace-smoke bench-json fuzz-smoke
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/lintcheck
	$(GO) test -race ./internal/core/... ./internal/accum/... ./internal/entrycache/... ./internal/invfile/... ./internal/iosim/... ./internal/btree/... ./internal/collection/... ./internal/document/... ./internal/telemetry/... ./internal/metrics/... ./internal/reqtrace/... ./internal/slo/... ./cmd/textjoind/...

# lint runs the repo's own static-analysis suite over the whole module
# and benchmark/: six analyzers driven by the checked-in policy table in
# internal/analysis/policy.go (see DESIGN.md §11); the seventh check, the
# package DAG, is the arch test in internal/analysis. Exit 1 on findings.
# By-value mutex copies are go vet's (copylocks): run `go vet ./...`
# with it, as verify does.
lint:
	$(GO) run ./cmd/lintcheck

# lint-report prints the review-friendly view: every rule with its doc
# line and finding count, the suppression tally, then each finding.
lint-report:
	$(GO) run ./cmd/lintcheck -report || true

race:
	$(GO) test -race ./...

# fuzz-smoke runs each fuzz target for a fixed 10 s beyond its seeds: the
# re-encode identity, the four-wide record decode against a per-cell
# reference, the B+tree cell decoder, the document-side twin against the
# record decode, and the corpus generator's table-resolved Zipf sampler
# against math/rand's. go test takes one fuzz target per run. A failing input is
# written under the package's testdata/fuzz, which is what to commit as a
# regression seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecordInto$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBTreeCell$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInto$$' -fuzztime 10s ./internal/document
	$(GO) test -run '^$$' -fuzz '^FuzzZipfMatchesStdlib$$' -fuzztime 10s ./internal/corpus

# perf is the one instrument that measures time: the four workloads of
# BENCHMARK.json, end to end and layer by layer (benchmark/README.md).
# perf-aa runs them five times over and checks the harness agrees with
# itself before any before/after comparison is believed.
perf:
	bash benchmark/run.sh

perf-aa:
	bash benchmark/run.sh -aa 5

# trace-smoke runs a real join with -telemetry json and validates what it
# emits (cmd/tracecheck). One line covers both formats: the run prints
# the Prometheus exposition and then its request trace, tracecheck checks
# the first with metrics.Lint and the second with reqtrace.Validate, and
# its verdict ("exposition, request trace ok") names what it saw.
# Telemetry goes to stderr, results to stdout, so 2>&1 1>/dev/null routes
# only the two into the checker.
trace-smoke:
	$(GO) run ./cmd/textjoin -p1 wsj -p2 wsj -scale 8192 -alg auto -lambda 5 -mem 200 -show 0 -telemetry json 2>&1 1>/dev/null | $(GO) run ./cmd/tracecheck

# obs-smoke boots textjoind on an ephemeral loopback port, drives every
# endpoint (/healthz, /join alone and in a concurrent burst, /metrics,
# /debug/requests, /debug/pprof/), validates the exposition
# with the strict parser and a request's trace with the tracecheck schema,
# and shuts down cleanly — all in-process, no curl needed.
obs-smoke:
	$(GO) run ./cmd/textjoind -smoke

# bench-json is the one instrument that measures page reads: the grid of
# cmd/benchreport over the deterministic simulated store — the paper's
# shapes × exact algorithms with the planner's choices,
# then the clustered shapes with the signature prefilter off and on and
# every LSH banding shape, recall measured against the exact pairs. The
# run itself fails if a prefilter changes a result hash or no LSH cell
# reaches recall ≥ 0.9 at half the best exact join's reads; the gate
# fails on any difference from BENCH_BASELINE.json — a cell's counts or
# result hash, a planner choice, estimate or mispick. It writes nothing
# (go test ./cmd/benchreport holds the same gate in tier-1). Regenerate
# the baseline and the calibration audit after an intended change with:
# go run ./cmd/benchreport -q -json BENCH_BASELINE.json -calreport CALIBRATION_PR4.md
bench-json:
	$(GO) run ./cmd/benchreport -q -baseline BENCH_BASELINE.json

# The load-generator targets run a real server process and a real client
# process. Their binaries are built where benchmark/run.sh builds its own,
# under the ignored .bench_build/bin (under names of their own: the
# benchmark's textjoind may be running), so make verify writes nothing
# outside the checkout. smoke-bin runs once per make invocation and leaves
# rebuilding to the Go build cache.
SMOKE_BIN := .bench_build/bin
SMOKE_SERVER := $(SMOKE_BIN)/textjoind.smoke
SMOKE_CLIENT := $(SMOKE_BIN)/loadgen.smoke
smoke-bin:
	@mkdir -p $(SMOKE_BIN)
	$(GO) build -o $(SMOKE_SERVER) ./cmd/textjoind
	$(GO) build -o $(SMOKE_CLIENT) ./cmd/loadgen

# loadgen-smoke is the CI check for the concurrent serving path: boot a
# real textjoind on a loopback port, fire a short open-loop run over the
# mixed request profiles, and fail unless every request completed with
# plausible latency percentiles. The server is killed whether or not the
# check passes.
LOADGEN_PORT ?= 18573
loadgen-smoke: smoke-bin
	@$(SMOKE_SERVER) -addr 127.0.0.1:$(LOADGEN_PORT) -scale 4096 & \
	pid=$$!; \
	$(SMOKE_CLIENT) -addr http://127.0.0.1:$(LOADGEN_PORT) -wait 30s -rate 40 -duration 2s -check; \
	rc=$$?; kill $$pid 2>/dev/null; exit $$rc

# slo-smoke is the CI gate for the SLO layer: boot a real textjoind,
# drive a fixed-rate run, then scrape /metrics (-slo) so the run fails
# unless the textjoin_slo_* families pass the strict exposition parser
# AND both error budgets (availability, latency) end the run with
# budget remaining. -check also enforces the client-vs-server clock
# gates: no reply may claim more server time than the client measured.
SLO_PORT ?= 18574
slo-smoke: smoke-bin
	@$(SMOKE_SERVER) -addr 127.0.0.1:$(SLO_PORT) -scale 4096 & \
	pid=$$!; \
	$(SMOKE_CLIENT) -addr http://127.0.0.1:$(SLO_PORT) -wait 30s -rate 40 -duration 3s -slo -check; \
	rc=$$?; kill $$pid 2>/dev/null; exit $$rc

# bench-load reproduces the checked-in BENCH_PR7.json: the identical
# open-loop arrival process against a serialized server (-budget-mb 0:
# every join is charged the whole admission budget, so one runs at a
# time) and a concurrent one, both modeling 3ms of device latency per
# page read. The serialized baseline saturates and sheds load (503s, by
# design); the concurrent server absorbs the full rate at a far lower
# p99. Ungated: numbers are machine-dependent — regenerate rather than
# diff-check.
bench-load: smoke-bin
	@$(SMOKE_SERVER) -addr 127.0.0.1:18575 -scale 4096 -io-delay 3ms -budget-mb 0 & \
	pid1=$$!; \
	$(SMOKE_SERVER) -addr 127.0.0.1:18576 -scale 4096 -io-delay 3ms & \
	pid2=$$!; \
	$(SMOKE_CLIENT) -target serialized=http://127.0.0.1:18575 -target concurrent=http://127.0.0.1:18576 \
		-wait 30s -rate 600 -duration 10s -json BENCH_PR7.json; \
	rc=$$?; kill $$pid1 $$pid2 2>/dev/null; exit $$rc
