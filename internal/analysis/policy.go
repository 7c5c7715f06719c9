package analysis

// Policy is the checked-in table of repo-specific facts the analyzers
// enforce. A PR that changes which packages produce results, hold
// nil-safe types, acquire resources or take locks edits this table in
// the same diff, which keeps those decisions reviewable. The package
// DAG is not here: it is the allow table of internal/analysis's
// TestArchitecture.
type Policy struct {
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
	// errors: _-assignments and bare-statement discards.
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

// DefaultPolicy returns the live repo's policy. internal/core is not a
// MapDeterminism package: its TestJoinFilesHoldNoMaps rejects every map
// type in its non-test files, and one promise has one guard.
func DefaultPolicy() *Policy {
	return &Policy{
		MapDeterminism: []string{
			"internal/accum", "internal/invfile", "internal/query",
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

// Analyzers instantiates the full analyzer suite over a policy, in
// rule-name order (the order reports list them in).
func Analyzers(pol *Policy) []Analyzer {
	return []Analyzer{
		&errDrop{pol: pol},
		&mapDeterminism{pol: pol},
		&mutexHygiene{pol: pol},
		&nilRecv{pol: pol},
		&resourceLeak{pol: pol},
		&wallClock{},
	}
}
