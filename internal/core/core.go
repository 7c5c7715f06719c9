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
// lower-case form, or "auto") to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	if s == "auto" {
		return Auto, nil
	}
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

// Rows is a caller-held row set: the rows of a join and the slab their
// matches are cut from, λ per outer document. Its zero value is ready to
// use. Decision.RunInto fills it and returns its rows, which alias it:
// they hold until the next RunInto on the set, which reuses its arrays, so
// a join into a recycled set no smaller than it needs allocates no rows.
// A set keeps the arrays of the largest join it served. Decision.Run joins
// into a new set, so its caller owns the rows it gets. A Rows is not safe
// for concurrent use.
type Rows struct {
	results []Result
	slab    []Match
}

// reset readies the set for a join of n outer documents at λ lambda, whose
// trackers, tks, keep their matches in the set's slab, and returns its
// empty rows, with room for exactly n: non-nil even for none, as a join's
// rows have always been.
func (r *Rows) reset(n, lambda int, tks *topk.Block) []Result {
	r.slab = tks.Reset(n, lambda, r.slab)
	if cap(r.results) < n || r.results == nil {
		r.results = make([]Result, n)
	}
	clear(r.results) // a row past n would keep an earlier slab alive
	return r.results[:0:n]
}

// Options configures a join run.
type Options struct {
	// Lambda is λ: how many inner documents to return per outer
	// document. Defaults to 20, the paper's base value. A row keeps at
	// most N1 matches, so Plan and Run use λ′ = max(1, min(λ, N1)).
	Lambda int
	// MemoryPages is B: the buffer budget in pages. Defaults to 10000,
	// the paper's base value.
	MemoryPages int64
	// Weighting selects the similarity function (raw occurrence dot
	// product by default, as in the paper's analysis).
	Weighting document.Weighting
	// CachePolicy selects HVNL's entry replacement policy. The default
	// is the paper's MinOuterDF.
	CachePolicy entrycache.Policy
	// Trace is the parent span the join runs under: every phase hangs a
	// child span under it, and the finished join's Stats land on it as
	// attributes. It is the only timing the join takes. nil (the
	// default) makes a phase cost one nil check — no clock read, no
	// allocation; tracing never changes results or Stats.
	Trace *reqtrace.Span
	// Prefilter supplies signature sidecars for pruning provably
	// zero-similarity inner pages from HHNL's scans. HVNL (whose resident
	// B+tree already skips every term a signature could rule out), VVM
	// (whose merge touches only co-occurring terms) and LSH ignore it;
	// Plan validates it for every family. nil disables pruning.
	// Signatures only ever prove non-overlap, so prefiltered results are
	// byte-identical to unfiltered ones.
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

// withDefaults fills in the paper's base values and bounds λ by the
// inner collection: a row keeps at most N1 matches, so a larger λ plans,
// charges and runs as λ′ = max(1, min(λ, N1)).
func (o Options) withDefaults(in Inputs) Options {
	if o.Lambda == 0 {
		o.Lambda = 20
	}
	if in.Inner != nil && o.Lambda > 0 {
		o.Lambda = int(max(1, min(int64(o.Lambda), in.Inner.NumDocs())))
	}
	if o.MemoryPages == 0 {
		o.MemoryPages = 10000
	}
	return o
}

func (o Options) validate() error {
	if o.Lambda < 0 || o.MemoryPages < 0 || o.RecallSLO < 0 || o.RecallSLO > 1 {
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
	// Comparisons counts full document-pair similarity computations:
	// HHNL's resident × streamed pairs, and LSH's verified candidates.
	Comparisons int64
	// Accumulations counts cell-product accumulations (HVNL and VVM).
	Accumulations int64
	// EntryFetches counts inverted-file entries read from storage
	// (HVNL).
	EntryFetches int64
	// Pairs counts the non-zero outer × inner similarities the join
	// found (HVNL and VVM): the measured δ·N1·N2.
	Pairs int64
	// TrackerEntries counts the matches the top-λ trackers kept, one per
	// insert, including those a better match later displaced: the work
	// of "identifying the λ documents with the largest similarities".
	TrackerEntries int64
	// CellsDecoded counts the cells of the records the join decoded, a
	// record's count added once per record: stored outer and inner
	// documents, and inverted-file entries fetched, preloaded or scanned.
	// A memory-resident query batch decodes nothing.
	CellsDecoded int64
	// Passes counts outer batches (HHNL, LSH) or partitions (VVM); HVNL
	// reports 1 when it preloads the inverted file in one sequential
	// sweep, else 0.
	Passes int
	// IO is the page I/O performed by the join across the files it
	// touched.
	IO iosim.Stats
	// Cost is IO priced at the disk's α.
	Cost float64
	// Cache reports HVNL's entry-cache effectiveness.
	Cache entrycache.Stats
	// PeakMemoryBytes is the most the join held, counted as planMemory
	// counts it; its result rows come on top.
	PeakMemoryBytes int64
	// Prefilter reports the signature pruning outcome when
	// Options.Prefilter was set.
	Prefilter PrefilterStats
	// LSH reports the bucket-probe outcome of the approximate join.
	LSH LSHStats
}

// LSHStats reports what the approximate join's candidate generation
// did; Comparisons in the enclosing Stats counts the exact-scorer
// verifications of the candidates. Its JSON form is textjoind's "lsh".
type LSHStats struct {
	// Enabled records whether the run was an LSH join.
	Enabled bool `json:"-"`
	// BucketProbes counts band-bucket lookups (outer docs × bands).
	BucketProbes int64 `json:"bucket_probes"`
	// Candidates counts distinct (outer, inner) candidate pairs sent to
	// verification.
	Candidates int64 `json:"candidates"`
	// PagesSkipped counts inner collection pages the verify scan never
	// read because no resident outer document had a candidate there.
	PagesSkipped int64 `json:"pages_skipped"`
	// DocsSkipped counts inner documents never decoded.
	DocsSkipped int64 `json:"docs_skipped"`
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
		return document.NewScorer(document.Cosine, nil, in.Outer.Norms(), in.Inner.Norms())
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

// joinCounts names a finished join's counts, in the order Counts yields
// them: each count's group ("" for the join's own counts, "io" for its
// page reads, "prefilter" for the signature prefilter's) and its name in
// the group.
var joinCounts = [...]struct{ group, name string }{
	{"", "outer_docs"}, {"", "inner_docs"}, {"", "comparisons"}, {"", "accumulations"}, {"", "entry_fetches"},
	{"", "passes"}, {"io", "seq"}, {"io", "rand"}, {"", "peak_bytes"}, {"", "tracker_entries"},
	{"", "cells_decoded"}, {"", "pairs"},
	{"prefilter", "pages_skipped"}, {"prefilter", "clusters_skipped"}, {"prefilter", "docs_skipped"}, {"prefilter", "false_passes"},
	{"", "bucket_probes"}, {"", "candidates"}, {"", "pages_skipped"}, {"", "docs_skipped"},
}

// spanKeys are the span attribute names of joinCounts by family,
// join.<alg>[.<group>].<count>, named once.
var spanKeys = func() (keys [LSH + 1][len(joinCounts)]string) {
	for alg := range keys {
		p := "join." + strings.ToLower(Algorithm(alg).String()) + "."
		for c, jc := range joinCounts {
			if keys[alg][c] = p + jc.name; jc.group != "" {
				keys[alg][c] = p + jc.group + "." + jc.name
			}
		}
	}
	return keys
}()

// Counts calls fn with each count of a finished join: its group, its name
// in the group (joinCounts) and its value. It is the one list of a join's
// counts. The join's span carries each as the attribute
// join.<alg>[.<group>].<count> (recordJoinStats); a program's collector
// holds it in the family /metrics prints (textjoin.RecordJoin).
func (st *Stats) Counts(fn func(group, count string, v int64)) {
	st.counts(func(c int, v int64) { fn(joinCounts[c].group, joinCounts[c].name, v) })
}

// counts calls fn with the index in joinCounts and the value of each count
// the join reports: pairs for HVNL and VVM, the prefilter's when it ran,
// LSH's for an LSH join.
func (st *Stats) counts(fn func(c int, v int64)) {
	own := [...]int64{st.OuterDocs, st.InnerDocs, st.Comparisons, st.Accumulations, st.EntryFetches,
		int64(st.Passes), st.IO.SeqReads, st.IO.RandReads, st.PeakMemoryBytes, st.TrackerEntries,
		st.CellsDecoded}
	for c, v := range own {
		fn(c, v)
	}
	if st.Algorithm == HVNL || st.Algorithm == VVM {
		fn(len(own), st.Pairs)
	}
	if pf := st.Prefilter; pf.Enabled {
		for i, v := range [...]int64{pf.PagesSkipped, pf.ClustersSkipped, pf.DocsSkipped, pf.FalsePasses} {
			fn(len(own)+1+i, v)
		}
	}
	if l := st.LSH; l.Enabled {
		for i, v := range [...]int64{l.BucketProbes, l.Candidates, l.PagesSkipped, l.DocsSkipped} {
			fn(len(own)+5+i, v)
		}
	}
}

// recordJoinStats writes a finished join's Counts, and HVNL's cache
// outcome, on the span the join ran under, so one request's trace
// answers what it cost. The join's only other record is the Stats it
// returns. No-op on a nil span; never mutates stats.
func recordJoinStats(trace *reqtrace.Span, st *Stats) {
	if trace == nil {
		return
	}
	keys := &spanKeys[st.Algorithm]
	st.counts(func(c int, v int64) { trace.SetInt(keys[c], v) })
	if st.Algorithm == HVNL {
		trace.SetInt("join.hvnl.cache.hits", st.Cache.Hits)
		trace.SetInt("join.hvnl.cache.misses", st.Cache.Misses)
		trace.SetInt("join.hvnl.cache.evictions", st.Cache.Evictions)
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
