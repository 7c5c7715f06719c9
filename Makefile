GO ?= go

.PHONY: build test verify fuzz-smoke race perf perf-aa trace-smoke obs-smoke bench-json bench-load smoke-bin lines

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# verify is the CI gate for the concurrent join paths: vet everything (a
# mutex copied by value is go vet's copylocks finding; the package DAG —
# its program rows included: a cmd/ or examples/ package reaches the
# storage and join stack through the facade only — the wall clock, seeded
# quick checks and closed cmd/ files are the parse-only tests of the root
# arch_test.go, and nil receivers, lock hygiene, ended spans and closed
# views are tests too, all part of go test), then race-check the
# packages that run concurrently (in internal/core the joins run
# concurrently on views of one disk, each on its caller's goroutine), the
# free lists the joins' run states and the server's row sets and reply
# buffers come from, the accumulator layer the joins share, the entry cache HVNL
# drives and the inverted file and paged store under it (ReadSpan hands
# concurrent views aliases of the shared page images), the term tables
# concurrent views read once memoized (B+tree image, document frequencies,
# idf and norms, and the scorer that holds them), the one collector,
# internal/metrics, whose families /metrics writes as they are and which
# the programs add each answered request to once (textjoin.RecordJoin;
# no join, cache or disk writes to it), the corpus generator (its draws
# stay on the caller's goroutine while a second one sorts and encodes
# each batch of documents), the request
# tracer whose span tree is the only timing any of them takes and the
# flight recorder that keeps the finished trees, the SLO engine computing
# error budgets over the collector, and the observability server that
# scrapes both during in-flight joins. The core run includes the differential harness
# (trace on/off invariance; RecordJoin under concurrent scrapes), and the
# textjoind run includes TestServingSchedule, the seeded in-process
# serving harness: concurrent joins with scrapes in flight, 400, 422,
# admission 503s and a mid-join fault, with admission, views, the I/O
# ledger, counters, SLO windows and traces checked after every step. It
# took over what the load-generator and SLO gates checked with a real
# server and client process, so neither runs here any more. It
# finishes with the smokes: one real-socket textjoind boot, the
# command-line run's exposition and trace piped into tracecheck, the
# page-read grid checked against its baseline, and a short fuzz of every
# decoder. benchmark/ is a module of its own that root ./... patterns
# never reach, so it is vetted and tested by name: a facade rename must
# not break it unnoticed. Tier-1 holds the vet half too: the root test
# TestBenchmarkModuleVets runs go vet inside benchmark/, so a renamed
# method that benchmark/ calls fails go test ./... already. The vector
# column kernel is amd64 assembly (go vet's asmdecl checks its frames),
# and so are its int32 twin and the widen pass of the block joins' exact
# rows, the block maxima kernel
# of the dense drain, the candidate kernel of the block joins' rows and
# the cell unpack every record decode runs;
# GOARCH=arm64 vet keeps the pure-Go build every other platform takes,
# and their Go bodies, compiling.
verify: obs-smoke trace-smoke bench-json fuzz-smoke
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race ./internal/core/... ./internal/freelist/... ./internal/accum/... ./internal/entrycache/... ./internal/invfile/... ./internal/iosim/... ./internal/btree/... ./internal/collection/... ./internal/document/... ./internal/corpus/... ./internal/metrics/... ./internal/reqtrace/... ./internal/slo/... ./cmd/textjoind/...

# lines prints the line counts a simplicity change is judged by:
# non-test and _test.go lines outside the benchmark/ module, and the
# assembly (*.s) lines there.
GOFILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.git/*'
lines:
	@echo "non-test Go: $$($(GOFILES) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "_test.go:    $$($(GOFILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "assembly:    $$(find . -name '*.s' -not -path './benchmark/*' -not -path './.git/*' -print0 | xargs -0 -r cat | wc -l)"

race:
	$(GO) test -race ./...

# fuzz-smoke runs each fuzz target for a fixed 10 s beyond its seeds: the
# re-encode identity, the record decode and the document decode that runs
# the same cell unpack against a per-cell reference, each with the vector
# unpack on and off, the B+tree cell decoder, the cosine admission rule
# against the division it skips, the vector column kernel, the int32
# column kernel and the widen pass of the block joins' exact rows (each
# also against the float64 path on the same integer inputs), and the block
# maxima kernel against their Go references, bit for bit, the candidate
# kernel's two bodies against a per-slot test, the seeded
# dense drain against the unseeded one it replaced, and the corpus
# generator's table-resolved Zipf sampler against math/rand's, VVM's
# similarity store against a map through its promotions, the λ-tracker
# slab against a tracker per slot, the paged store's sequential record
# stream against ReadAt and the pages its records span, and every exact
# join family against the brute-force reference on random corpora,
# budgets and selections. go test takes one fuzz target per run. A
# failing input is written under the package's testdata/fuzz, which is
# what to commit as a regression seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecordInto$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBTreeCell$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInto$$' -fuzztime 10s ./internal/document
	$(GO) test -run '^$$' -fuzz '^FuzzCosineAdmission$$' -fuzztime 10s ./internal/document
	$(GO) test -run '^$$' -fuzz '^FuzzZipfMatchesStdlib$$' -fuzztime 10s ./internal/corpus
	$(GO) test -run '^$$' -fuzz '^FuzzStoreMatchesMap$$' -fuzztime 10s ./internal/accum
	$(GO) test -run '^$$' -fuzz '^FuzzAddColumn$$' -fuzztime 10s ./internal/accum
	$(GO) test -run '^$$' -fuzz '^FuzzAddColumnInt32$$' -fuzztime 10s ./internal/accum
	$(GO) test -run '^$$' -fuzz '^FuzzWiden$$' -fuzztime 10s ./internal/accum
	$(GO) test -run '^$$' -fuzz '^FuzzBlockMaxima$$' -fuzztime 10s ./internal/accum
	$(GO) test -run '^$$' -fuzz '^FuzzAbove$$' -fuzztime 10s ./internal/accum
	$(GO) test -run '^$$' -fuzz '^FuzzBlockMatchesTopK$$' -fuzztime 10s ./internal/topk
	$(GO) test -run '^$$' -fuzz '^FuzzStream$$' -fuzztime 10s ./internal/iosim
	$(GO) test -run '^$$' -fuzz '^FuzzJoinsAgree$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDenseDrain$$' -fuzztime 10s ./internal/core

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

# obs-smoke boots textjoind on an ephemeral loopback port, answers one
# /join and one /metrics scrape over real HTTP, checks the exposition with
# the strict parser, and shuts down cleanly — no curl needed.
obs-smoke:
	$(GO) run ./cmd/textjoind -smoke

# bench-json is the one instrument that measures page reads: the grid of
# cmd/benchreport over the deterministic simulated store — the paper's
# shapes × exact algorithms with the planner's choices,
# then the clustered shapes with HHNL's signature prefilter off and on and
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

# bench-load runs a real server process and a real client process. Their
# binaries are built where benchmark/run.sh builds its own, under the
# ignored .bench_build/bin (under names of their own: the benchmark's
# textjoind may be running), so nothing is written outside the checkout.
# smoke-bin runs once per make invocation and leaves rebuilding to the Go
# build cache.
SMOKE_BIN := .bench_build/bin
SMOKE_SERVER := $(SMOKE_BIN)/textjoind.smoke
SMOKE_CLIENT := $(SMOKE_BIN)/loadgen.smoke
smoke-bin:
	@mkdir -p $(SMOKE_BIN)
	$(GO) build -o $(SMOKE_SERVER) ./cmd/textjoind
	$(GO) build -o $(SMOKE_CLIENT) ./cmd/loadgen

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
