// Package core implements the paper's three algorithms for processing
// joins between textual attributes, plus the integrated algorithm that
// picks among them by estimated cost.
//
// The join evaluated is
//
//	C1 SIMILAR_TO(λ) C2
//
// find, for each document of the outer collection C2, the λ documents of
// the inner collection C1 with the largest similarities. The three
// algorithms differ in which representations they consume:
//
//   - HHNL (Horizontal–Horizontal Nested Loop) reads raw documents from
//     both collections.
//   - HVNL (Horizontal–Vertical Nested Loop) reads documents from C2 and
//     probes the inverted file on C1 through its B+tree, caching entries.
//   - VVM (Vertical–Vertical Merge) merge-scans the inverted files of both
//     collections, partitioning the outer collection into ⌈SM/M⌉ ranges
//     when the similarity accumulator exceeds memory.
//
// All three produce identical results (the same λ matches per outer
// document, deterministically tie-broken), which the test suite verifies
// by property testing.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
	"textjoin/internal/topk"
)

// Algorithm identifies one of the paper's join algorithms.
type Algorithm int

const (
	// HHNL is the Horizontal–Horizontal Nested Loop of Section 4.1.
	HHNL Algorithm = iota
	// HVNL is the Horizontal–Vertical Nested Loop of Section 4.2.
	HVNL
	// VVM is the Vertical–Vertical Merge of Section 4.3.
	VVM
	// LSH is the approximate MinHash/banding join: candidates from
	// shared buckets, verified with the exact scorer. The one algorithm
	// that trades bounded recall for I/O.
	LSH
)

var algNames = [...]string{HHNL: "HHNL", HVNL: "HVNL", VVM: "VVM", LSH: "LSH"}

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algNames) {
		return algNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a flag string (the paper's name, or its
// lower-case form) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algNames {
		if s == name || s == strings.ToLower(name) {
			return Algorithm(a), nil
		}
	}
	return HHNL, fmt.Errorf("core: unknown algorithm %q", s)
}

// Errors returned by the join algorithms.
var (
	// ErrInsufficientMemory is returned when the memory budget cannot
	// hold even the minimal working set of an algorithm.
	ErrInsufficientMemory = errors.New("core: memory budget too small")
	// ErrMissingInput is returned when an algorithm lacks a required
	// input (e.g. VVM without both inverted files).
	ErrMissingInput = errors.New("core: missing input")
)

// Match is one (inner document, similarity) pair.
type Match = topk.Match

// Result holds the λ best inner matches of one outer document, best
// first. Outer documents with no non-zero similarity still appear, with an
// empty match list, so that len(results) always equals the number of outer
// documents.
type Result struct {
	Outer   uint32
	Matches []Match
}

// Options configures a join run.
type Options struct {
	// Lambda is λ: how many inner documents to return per outer
	// document. Defaults to 20, the paper's base value.
	Lambda int
	// MemoryPages is B: the buffer budget in pages. Defaults to 10000,
	// the paper's base value.
	MemoryPages int64
	// Weighting selects the similarity function (raw occurrence dot
	// product by default, as in the paper's analysis).
	Weighting document.Weighting
	// Delta is δ: the estimated fraction of non-zero similarities, used
	// to size HVNL's accumulator reservation and VVM's partitions.
	// Defaults to 0.1, the paper's base value.
	Delta float64
	// Backward runs HHNL in backward order (C1 outer): an extension the
	// paper mentions and defers to the technical report.
	Backward bool
	// CachePolicy selects HVNL's entry replacement policy. The default
	// is the paper's MinOuterDF.
	CachePolicy entrycache.Policy
	// Telemetry receives counters and histograms while the join runs.
	// nil (the default) disables instrumentation with near-zero
	// overhead; enabling it never changes results or Stats, which the
	// differential test harness pins.
	Telemetry *telemetry.Collector
	// Trace is the parent span the join runs under: every phase hangs a
	// child span under it, and the finished join's Stats land on it as
	// attributes. It is the only timing the join takes. nil (the
	// default) makes a phase cost one nil check — no clock read, no
	// allocation; tracing never changes results or Stats.
	Trace *reqtrace.Span
	// Prefilter supplies signature sidecars for pruning provably
	// zero-similarity work from HHNL and HVNL (VVM's merge already
	// touches only co-occurring terms and ignores it). nil disables
	// pruning. Signatures only ever prove non-overlap, so prefiltered
	// results are byte-identical to unfiltered ones.
	Prefilter *Prefilter
	// LSH supplies the inner collection's MinHash sidecar. Required by
	// the LSH join; offered to the integrated planner, which may pick the
	// approximate join when RecallSLO permits.
	LSH *lsh.Sidecar
	// RecallSLO is the lowest acceptable recall when the integrated
	// planner considers the approximate LSH join: 0 (the default) and 1
	// both restrict the planner to the exact algorithms; a value in
	// (0, 1) lets LSH win when its estimated recall meets the SLO and
	// its estimated cost beats every exact plan. Join(LSH, ...) ignores
	// it.
	RecallSLO float64
}

// withDefaults fills in the paper's base values.
func (o Options) withDefaults() Options {
	if o.Lambda == 0 {
		o.Lambda = 20
	}
	if o.MemoryPages == 0 {
		o.MemoryPages = 10000
	}
	if o.Delta == 0 {
		o.Delta = 0.1
	}
	return o
}

func (o Options) validate() error {
	if o.Lambda < 0 || o.MemoryPages < 0 || o.Delta < 0 || o.Delta > 1 ||
		o.RecallSLO < 0 || o.RecallSLO > 1 {
		return fmt.Errorf("core: invalid options %+v", o)
	}
	return nil
}

// Stats reports what a join run did.
type Stats struct {
	// Algorithm that produced the results.
	Algorithm Algorithm
	// OuterDocs and InnerDocs are the document counts seen.
	OuterDocs, InnerDocs int64
	// Comparisons counts full document-pair similarity computations
	// (HHNL only).
	Comparisons int64
	// Accumulations counts cell-product accumulations (HVNL and VVM).
	Accumulations int64
	// EntryFetches counts inverted-file entries read from storage
	// (HVNL).
	EntryFetches int64
	// Passes counts outer blocks (HHNL) or partitions (VVM).
	Passes int
	// IO is the page I/O performed by the join across the files it
	// touched.
	IO iosim.Stats
	// Cost is IO priced at the disk's α.
	Cost float64
	// Cache reports HVNL's entry-cache effectiveness.
	Cache entrycache.Stats
	// PeakMemoryBytes is the maximum working-set estimate observed.
	PeakMemoryBytes int64
	// Prefilter reports the signature pruning outcome when
	// Options.Prefilter was set.
	Prefilter PrefilterStats
	// LSH reports the bucket-probe outcome of the approximate join.
	LSH LSHStats
}

// LSHStats reports what the approximate join's candidate generation
// did. Comparisons in the parent Stats counts the exact-scorer
// verifications of the candidates.
type LSHStats struct {
	// Enabled records whether the run was an LSH join.
	Enabled bool
	// BucketProbes counts band-bucket lookups (outer docs × bands).
	BucketProbes int64
	// Candidates counts distinct (outer, inner) candidate pairs sent to
	// verification.
	Candidates int64
	// PagesSkipped counts inner collection pages the verify scan never
	// read because no resident outer document had a candidate there.
	PagesSkipped int64
	// DocsSkipped counts inner documents never decoded.
	DocsSkipped int64
}

// Inputs bundles the representations available to the join. Every
// algorithm uses a subset:
//
//	HHNL: Outer, Inner
//	HVNL: Outer, Inner (statistics), InnerInv
//	VVM:  InnerInv, OuterInv, and Outer only to restrict a selection
type Inputs struct {
	// Outer is the C2 side: a full collection or a selection subset.
	Outer collection.Reader
	// Inner is the C1 side collection.
	Inner *collection.Collection
	// InnerInv is the inverted file on C1.
	InnerInv *invfile.InvertedFile
	// OuterInv is the inverted file on C2's base collection.
	OuterInv *invfile.InvertedFile
}

// scorer builds the scorer implied by the options.
func (in Inputs) scorer(o Options) (*document.Scorer, error) {
	switch o.Weighting {
	case document.RawTF:
		return document.NewScorer(document.RawTF, nil, nil, nil)
	case document.Cosine:
		if in.Inner == nil || in.Outer == nil {
			return nil, fmt.Errorf("%w: cosine weighting needs both collections", ErrMissingInput)
		}
		return document.NewScorer(document.Cosine, nil, in.Outer.Norms(), in.Inner.DocNorms())
	case document.TFIDF:
		if in.Inner == nil {
			return nil, fmt.Errorf("%w: tfidf weighting needs the inner collection", ErrMissingInput)
		}
		return document.NewScorer(document.TFIDF, in.Inner.IDF(), nil, nil)
	default:
		return nil, fmt.Errorf("core: unknown weighting %v", o.Weighting)
	}
}

// ioTracker snapshots per-file counters so a join can report exactly its
// own I/O even when several structures share a disk.
type ioTracker struct {
	files  []*iosim.File
	before []iosim.Stats
}

func trackIO(files ...*iosim.File) *ioTracker {
	t := &ioTracker{}
	for _, f := range files {
		if f == nil || slices.Contains(t.files, f) {
			continue
		}
		t.files = append(t.files, f)
		t.before = append(t.before, f.Stats())
	}
	return t
}

// treeFile returns the file backing inv's B+tree (nil for an empty
// inverted file, which trackIO skips).
func treeFile(inv *invfile.InvertedFile) *iosim.File {
	if t := inv.Tree(); t != nil {
		return t.File()
	}
	return nil
}

func (t *ioTracker) delta() iosim.Stats {
	var total iosim.Stats
	for i, f := range t.files {
		total.Add(f.Stats().Sub(t.before[i]))
	}
	return total
}

// recordJoinStats publishes a finished join's Stats twice under the same
// "join.<alg>.*" names: as telemetry counters, so one snapshot carries
// the counts the Stats struct reports after the fact, and as attributes
// of the span the join ran under, so one request's trace answers what it
// cost without a second lookup. The entry cache counts itself per policy
// ("cache.<policy>.*"), so its outcome goes on the span only. No-op when
// both sinks are nil; never mutates stats, so enabled and disabled runs
// stay byte-identical.
func recordJoinStats(tel *telemetry.Collector, trace *reqtrace.Span, st *Stats) {
	if tel == nil && trace == nil {
		return
	}
	p := "join." + strings.ToLower(st.Algorithm.String())
	publish := func(name string, v int64) {
		name = p + name
		tel.Counter(name).Add(v)
		trace.SetInt(name, v)
	}
	publish(".outer_docs", st.OuterDocs)
	publish(".inner_docs", st.InnerDocs)
	publish(".comparisons", st.Comparisons)
	publish(".accumulations", st.Accumulations)
	publish(".entry_fetches", st.EntryFetches)
	publish(".passes", int64(st.Passes))
	publish(".io.seq", st.IO.SeqReads)
	publish(".io.rand", st.IO.RandReads)
	publish(".peak_bytes", st.PeakMemoryBytes)
	if st.Prefilter.Enabled {
		publish(".prefilter.pages_skipped", st.Prefilter.PagesSkipped)
		publish(".prefilter.clusters_skipped", st.Prefilter.ClustersSkipped)
		publish(".prefilter.docs_skipped", st.Prefilter.DocsSkipped)
		publish(".prefilter.false_passes", st.Prefilter.FalsePasses)
	}
	if st.LSH.Enabled {
		publish(".bucket_probes", st.LSH.BucketProbes)
		publish(".candidates", st.LSH.Candidates)
		publish(".pages_skipped", st.LSH.PagesSkipped)
		publish(".docs_skipped", st.LSH.DocsSkipped)
	}
	if st.Algorithm == HVNL {
		trace.SetInt(p+".cache.hits", st.Cache.Hits)
		trace.SetInt(p+".cache.misses", st.Cache.Misses)
		trace.SetInt(p+".cache.evictions", st.Cache.Evictions)
	}
}

// alpha returns the cost ratio of the disk backing the first non-nil file.
func alpha(files ...*iosim.File) float64 {
	for _, f := range files {
		if f != nil {
			return f.Disk().Alpha()
		}
	}
	return iosim.DefaultAlpha
}

// Join runs the given algorithm.
func Join(alg Algorithm, in Inputs, opts Options) ([]Result, *Stats, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	switch alg {
	case HHNL:
		return runHHNL(in, opts)
	case HVNL:
		return runHVNL(in, opts)
	case VVM:
		return runVVM(in, opts)
	case LSH:
		return runLSH(in, opts)
	default:
		return nil, nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
}
