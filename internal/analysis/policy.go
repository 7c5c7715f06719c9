package analysis

// Policy is the checked-in table of repo-specific facts the analyzers
// enforce. DESIGN.md §11 documents it as the source of truth for the
// package DAG: a PR that adds a dependency edge must extend this table,
// which makes layering changes reviewable instead of accidental.
type Policy struct {
	// ImportLayer is the package DAG. Key: module-relative package
	// path. Value: the complete list of module-internal packages it may
	// import (stdlib is always allowed; anything outside the module is
	// never allowed — the repo is dependency-free by design). Every
	// package under internal/ MUST have an entry: an internal package
	// missing from the table is itself a violation, so new packages
	// declare their layer on arrival. A program (cmd/*, examples/*)
	// with an entry may import the facade plus the internal packages
	// its entry lists; packages outside internal/ without one (the
	// facade itself, the benchmark harness) may import any module
	// package. Nothing may import cmd/* binaries.
	ImportLayer map[string][]string

	// MapDeterminism lists the result-producing packages in which a
	// `for range` over a map is flagged unless the loop's function
	// later feeds a sort (or the site carries an ignore directive).
	MapDeterminism []string

	// NilRecv maps a package to the types whose exported
	// pointer-receiver methods must begin with a nil-receiver guard
	// (the telemetry disabled-path contract).
	NilRecv map[string][]string

	// Resources is the acquire→release pairing table for the CFG-based
	// resourceleak analyzer: each rule names an acquiring function and
	// the release method its result owes on every path to exit. A new
	// must-release invariant is a row here, not an analyzer.
	Resources []ResourceRule

	// ErrDrop lists the package scopes (prefix semantics; "." is the
	// module root) in which the errdrop analyzer polices dropped
	// errors: _-assignments, bare-statement discards, and error values
	// overwritten or abandoned before being consulted.
	ErrDrop []string

	// ErrDropExempt lists the packages whose functions' and types'
	// returned errors are vacuous by contract (fmt printers, in-memory
	// buffer and hash writes) and may be discarded without a directive.
	// A call through an interface is judged by the package of the
	// receiver's static type: every hash/fnv hash is a hash.Hash.
	ErrDropExempt []string

	// LockOrder lists the package scopes in which mutexhygiene enforces
	// the one lock order the tree uses: every lock is a leaf, so no lock
	// is acquired — directly or through a same-package callee — while
	// another (or the same one) is held.
	LockOrder []string

	// HeldCalls is the must-not-hold table of mutexhygiene: each rule
	// names calls that must not be made while any lock is held. A new
	// must-not-hold invariant is a row here, not an analyzer.
	HeldCalls []HeldCallRule
}

// ResourceRule pairs an acquiring call with the release method its
// result must see on every path. Pkg is "." for the module root, a
// module-relative path for internal packages, or a stdlib import path;
// Call is the acquiring function or method name; Release the method
// that frees the result. Scope, when non-empty, restricts enforcement
// to the listed package prefixes.
type ResourceRule struct {
	Pkg     string
	Call    string
	Release string
	Scope   []string
}

// HeldCallRule forbids, within the Scope package prefixes, calling any
// function or method of package Pkg (same spelling as ResourceRule.Pkg)
// whose name starts with Prefix while a lock is held on every path into
// the call. Why ends the diagnostic: what the caller should do instead.
type HeldCallRule struct {
	Scope  []string
	Pkg    string
	Prefix string
	Why    string
}

// DefaultPolicy returns the live repo's policy. The ImportLayer table
// transcribes the DESIGN.md layer diagram: telemetry is zero-dep,
// codec/costmodel/relation/topk/analysis are stdlib-only, accum (whose
// AddCells takes the cells it multiplies) and document sit one rung
// above codec, metrics and reqtrace see only
// telemetry among internal packages (reqtrace to derive the phase
// histograms from its finished trees), and the join core is the only
// package that may pull the whole storage stack together. The program
// rows are the one-door rule: a program gets its disk, collections,
// inverted files and joins from the facade, and lists only what it is
// about besides — data generation (corpus), pure formulas (costmodel,
// simulate), observability, the lint engine — never a storage or join
// package.
func DefaultPolicy() *Policy {
	return &Policy{
		ImportLayer: map[string][]string{
			"internal/analysis":  {},
			"internal/codec":     {},
			"internal/costmodel": {},
			"internal/relation":  {},
			"internal/telemetry": {},
			"internal/topk":      {},

			"internal/accum":    {"internal/codec"},
			"internal/document": {"internal/codec"},
			"internal/iosim":    {"internal/telemetry"},
			"internal/metrics":  {"internal/telemetry"},
			"internal/reqtrace": {"internal/telemetry"},
			"internal/slo":      {"internal/metrics", "internal/telemetry"},

			"internal/btree":      {"internal/codec", "internal/iosim"},
			"internal/termmap":    {"internal/codec", "internal/document"},
			"internal/tokenize":   {"internal/document", "internal/termmap"},
			"internal/collection": {"internal/codec", "internal/document", "internal/iosim"},
			"internal/stats":      {"internal/collection", "internal/document"},
			"internal/invfile":    {"internal/btree", "internal/codec", "internal/collection", "internal/iosim"},
			"internal/entrycache": {"internal/invfile", "internal/telemetry"},
			"internal/cluster":    {"internal/collection", "internal/document", "internal/iosim"},
			"internal/lsh":        {"internal/collection", "internal/document", "internal/iosim"},
			"internal/signature":  {"internal/collection", "internal/document", "internal/iosim"},
			"internal/corpus":     {"internal/collection", "internal/costmodel", "internal/document", "internal/iosim"},

			"internal/core": {
				"internal/accum", "internal/codec", "internal/collection",
				"internal/costmodel", "internal/document", "internal/entrycache",
				"internal/invfile", "internal/iosim", "internal/lsh",
				"internal/reqtrace", "internal/signature", "internal/stats",
				"internal/telemetry", "internal/topk",
			},
			"internal/query": {
				"internal/collection", "internal/core", "internal/costmodel",
				"internal/document", "internal/invfile", "internal/lsh",
				"internal/relation", "internal/telemetry",
			},
			"internal/simulate": {"internal/corpus", "internal/costmodel"},

			"cmd/benchreport": {"internal/corpus", "internal/costmodel"},
			"cmd/corpusgen":   {"internal/corpus"},
			"cmd/lintcheck":   {"internal/analysis"},
			"cmd/loadgen":     {"internal/metrics"},
			"cmd/simulate":    {"internal/corpus", "internal/costmodel", "internal/simulate"},
			"cmd/textjoin":    {"internal/corpus", "internal/reqtrace"},
			"cmd/textjoind": {
				"internal/costmodel", "internal/metrics", "internal/reqtrace",
				"internal/telemetry",
			},
			"cmd/tracecheck": {"internal/reqtrace", "internal/telemetry"},

			"examples/clustering":   {},
			"examples/costexplorer": {},
			"examples/jobmatch":     {},
			"examples/multidb":      {},
			"examples/reviewers":    {},
		},
		MapDeterminism: []string{
			"internal/accum", "internal/core", "internal/invfile", "internal/query",
			"internal/lsh", "internal/metrics", "internal/reqtrace", "internal/slo",
		},
		NilRecv: map[string][]string{
			"internal/telemetry": {"Collector", "Counter", "Histogram", "Snapshot"},
			"internal/metrics":   {"Exporter"},
			"internal/reqtrace":  {"Tracer", "Span", "Recorder"},
			"internal/slo":       {"Engine"},
		},
		Resources: []ResourceRule{
			// Trace spans, module-wide: a span that some path never Ends
			// is missing from the recorded tree, so the phase it timed
			// drops out of the trace exactly when the trace is needed.
			{Pkg: "internal/reqtrace", Call: "StartTrace", Release: "End"},
			{Pkg: "internal/reqtrace", Call: "StartLinkedTrace", Release: "End"},
			{Pkg: "internal/reqtrace", Call: "StartChild", Release: "End"},
			// iosim view sessions: a leaked view never merges its IOStats
			// into the shared ledger, corrupting the Section-5 accounting.
			{Pkg: "internal/iosim", Call: "View", Release: "Close"},
			// The facade's Snapshot is the same session one layer up.
			{Pkg: ".", Call: "Snapshot", Release: "Close"},
			// Network listeners and OS file handles in the front ends.
			{Pkg: "net", Call: "Listen", Release: "Close"},
			{Pkg: "os", Call: "Open", Release: "Close", Scope: []string{"cmd"}},
			{Pkg: "os", Call: "Create", Release: "Close", Scope: []string{"cmd"}},
			{Pkg: "os", Call: "OpenFile", Release: "Close", Scope: []string{"cmd"}},
		},
		ErrDrop: []string{
			"internal/iosim", "internal/btree", "internal/invfile",
			"internal/collection", "internal/signature", "internal/lsh",
			".", "cmd",
		},
		ErrDropExempt: []string{
			"fmt", "strings", "bytes", "hash", "hash/maphash", "math/rand",
		},
		LockOrder: []string{"internal", "cmd", "."},
		HeldCalls: []HeldCallRule{
			// The scrape-lock-free promise: /metrics and /debug/requests
			// snapshot atomics under short mutexes and never sit on a
			// lock waiting for simulated disk I/O.
			{Scope: []string{"internal/metrics", "internal/telemetry", "cmd/textjoind"},
				Pkg: "internal/iosim",
				Why: "the scrape-lock-free layer must not block on simulated I/O under a lock"},
			// A front end that runs a whole join under a lock serializes
			// every concurrent request behind that join's device I/O.
			{Scope: []string{"cmd/benchreport", "cmd/textjoin", "cmd/textjoind"},
				Pkg: ".", Prefix: "Join",
				Why: "serve joins from a snapshot view instead of locking across the whole join"},
		},
	}
}

// matchScope reports whether the module-relative package path rel falls
// under any listed scope. "." matches only the module root; any other
// entry matches itself and everything beneath it.
func matchScope(list []string, rel string) bool {
	for _, s := range list {
		if s == "." {
			if rel == "" {
				return true
			}
			continue
		}
		if rel == s || len(rel) > len(s) && rel[:len(s)] == s && rel[len(s)] == '/' {
			return true
		}
	}
	return false
}

// Analyzers instantiates the full analyzer suite over a policy.
func Analyzers(pol *Policy) []Analyzer {
	return []Analyzer{
		&importLayer{pol: pol},
		&mapDeterminism{pol: pol},
		&wallClock{},
		&nilRecv{pol: pol},
		&resourceLeak{pol: pol},
		&errDrop{pol: pol},
		&mutexHygiene{pol: pol},
	}
}
