package analysis

// Policy is the checked-in table of repo-specific facts the analyzers
// enforce. A change to which packages produce results or drop errors
// edits this table in the same diff, which keeps those decisions
// reviewable. The package DAG is not here: it is
// the allow table of internal/analysis's TestArchitecture.
type Policy struct {
	// MapDeterminism lists the result-producing packages in which a
	// `for range` over a map is flagged unless the loop's function
	// later feeds a sort (or the site carries an ignore directive).
	MapDeterminism []string

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
}

// DefaultPolicy returns the live repo's policy. internal/core,
// internal/accum and internal/invfile are not MapDeterminism packages:
// internal/core's TestJoinFilesHoldNoMaps rejects every map type in
// their non-test files, and one promise has one guard.
func DefaultPolicy() *Policy {
	return &Policy{
		MapDeterminism: []string{
			"internal/query", "internal/lsh", "internal/metrics",
			"internal/reqtrace", "internal/slo",
		},
		ErrDrop: []string{
			"internal/iosim", "internal/btree", "internal/invfile",
			"internal/collection", "internal/signature", "internal/lsh",
			".", "cmd",
		},
		ErrDropExempt: []string{
			"fmt", "strings", "bytes", "hash", "hash/maphash", "math/rand",
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
	}
}
