// Package textjoin is a library for processing joins between textual
// attributes, reproducing Meng, Yu, Wang and Rishe, "Performance Analysis
// of Several Algorithms for Processing Joins between Textual Attributes"
// (ICDE 1996).
//
// A textual join "C1 SIMILAR_TO(λ) C2" pairs each document of collection
// C2 with the λ documents of collection C1 most similar to it. The
// library provides:
//
//   - the paper's three join algorithms — HHNL (nested loop over raw
//     documents), HVNL (documents probing an inverted file through its
//     B+tree with a frequency-aware entry cache) and VVM (a merge scan of
//     two inverted files with memory-partitioned accumulation) — over a
//     byte-accurate simulated paged store that accounts sequential and
//     random page I/O exactly as the paper's cost model does;
//   - every cost formula of the paper's Section 5 and the integrated
//     algorithm that picks the cheapest strategy from collection,
//     system and query statistics;
//   - an extended-SQL layer for queries like
//     "SELECT ... WHERE A.Resume SIMILAR_TO(20) P.Job_descr" with
//     selection push-down;
//   - synthetic corpus generation matching the paper's WSJ/FR/DOE
//     statistics.
//
// The package is the one door to the storage and join stack: every
// program under cmd/ and examples/ gets its disk, collections, inverted
// files and sidecars from a Workspace and runs joins through Join and
// JoinIntegrated, and the lint policy (internal/analysis) forbids them
// the storage packages underneath. In return the facade stays as small
// as its callers: an export no program names is deleted, not kept
// (TestFacadeExportsHaveProgramCallers).
//
// # Quick start
//
//	ws := textjoin.NewWorkspace()
//	c1, _ := ws.NewCollection("resumes", resumeDocs)
//	c2, _ := ws.NewCollection("jobs", jobDocs)
//	inv1, _ := ws.BuildInvertedFile(c1)
//	results, stats, _ := textjoin.Join(textjoin.HVNL,
//	    textjoin.Inputs{Outer: c2, Inner: c1, InnerInv: inv1},
//	    textjoin.Options{Lambda: 5, MemoryPages: 1000})
//
// See example_test.go and the examples directory for complete programs.
package textjoin

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"time"

	"textjoin/internal/cluster"
	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/metrics"
	"textjoin/internal/query"
	"textjoin/internal/relation"
	"textjoin/internal/reqtrace"
	"textjoin/internal/signature"
	"textjoin/internal/slo"
	"textjoin/internal/telemetry"
	"textjoin/internal/termmap"
	"textjoin/internal/tokenize"
)

// Core join API.
type (
	// Algorithm identifies one of the paper's three join algorithms.
	Algorithm = core.Algorithm
	// Inputs bundles the representations a join consumes.
	Inputs = core.Inputs
	// Options configures a join run (λ, memory budget, weighting,
	// prefilter, ...).
	Options = core.Options
	// Result holds one outer document's λ best matches.
	Result = core.Result
	// Match is one (inner document, similarity) pair.
	Match = core.Match
	// JoinStats reports a join's I/O and work counters.
	JoinStats = core.Stats
	// Decision explains an integrated-algorithm choice.
	Decision = core.Decision
)

// The three exact algorithms, plus the approximate MinHash join.
const (
	HHNL = core.HHNL
	HVNL = core.HVNL
	VVM  = core.VVM
	LSH  = core.LSH
)

// Storage and document model.
type (
	// Disk is the simulated paged store with sequential/random I/O
	// accounting.
	Disk = iosim.Disk
	// Document is a term vector.
	Document = document.Document
	// Weighting selects the similarity function.
	Weighting = document.Weighting
	// Collection is an immutable on-disk document collection.
	Collection = collection.Collection
	// Reader is a document source: a Collection, a selection subset of
	// one (Collection.Subset) or a Batch.
	Reader = collection.Reader
	// Batch is a memory-resident set of query documents joined against
	// a stored collection (the paper's batch-query scenario; VVM is
	// inapplicable because a batch has no inverted file).
	Batch = collection.Batch
	// InvertedFile is a collection's inverted file with its B+tree.
	InvertedFile = invfile.InvertedFile
)

// Similarity weightings.
const (
	// RawTF is the paper's base similarity: dot product of occurrence
	// counts.
	RawTF = document.RawTF
	// Cosine normalizes by the pre-computed document norms.
	Cosine = document.Cosine
	// TFIDF weights each term by its squared inverse document
	// frequency.
	TFIDF = document.TFIDF
)

// Cost model.
type (
	// CollectionStats are the statistics (N, K, T) a cost estimate
	// consumes.
	CollectionStats = costmodel.Collection
	// System carries B (memory pages), P (page size) and α.
	System = costmodel.System
	// QueryParams carries λ and δ.
	QueryParams = costmodel.Query
	// CostInput describes one join for estimation.
	CostInput = costmodel.Input
	// Estimate is one algorithm's estimated sequential and worst-case
	// random cost.
	Estimate = costmodel.Estimate
)

// Profile describes a synthetic collection's target statistics.
type Profile = corpus.Profile

// Query layer.
type (
	// Catalog binds relations and textual attributes.
	Catalog = query.Catalog
	// Engine executes extended-SQL queries.
	Engine = query.Engine
	// TextBinding attaches a collection (and inverted file) to a text
	// attribute.
	TextBinding = query.TextBinding
	// QueryOptions configures query execution.
	QueryOptions = query.Options
	// Relation is an in-memory table with text attributes.
	Relation = relation.Relation
	// Column describes one relation attribute.
	Column = relation.Column
	// Dictionary is the standard term-number mapping of Section 3.
	Dictionary = termmap.Dictionary
	// LocalMapping translates a local IR system's term numbers to the
	// standard numbers.
	LocalMapping = termmap.LocalMapping
	// Tokenizer converts raw text into term vectors.
	Tokenizer = tokenize.Tokenizer
)

// Telemetry layer.
type (
	// Telemetry is the aggregate instrumentation collector: I/O, cache
	// and join counters and histograms. It reads no clock — timing is
	// the RequestSpan tree's job. A nil *Telemetry disables collection
	// everywhere it is passed.
	Telemetry = telemetry.Collector
	// TelemetrySink renders a snapshot as text or JSON.
	TelemetrySink = telemetry.Sink
)

// NewTelemetry creates an enabled collector. Attach it to a join via
// Options.Telemetry (or QueryOptions.Telemetry) and to the storage layer
// via Workspace.SetTelemetry; read it back with its Snapshot method and
// a TelemetrySink.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TelemetrySinkFor maps "text" or "json" to a sink.
func TelemetrySinkFor(mode string) (TelemetrySink, error) { return telemetry.SinkFor(mode) }

// MetricsExporter serves a collector as a Prometheus text exposition,
// computing per-second rates between successive scrapes.
type MetricsExporter = metrics.Exporter

// NewMetricsExporter creates a /metrics handler over a collector (nil is
// allowed and serves an empty exposition). Options extend the scrape —
// WithSLOGauges adds the SLO engine's families.
func NewMetricsExporter(t *Telemetry, opts ...MetricsExporterOption) *MetricsExporter {
	return metrics.NewExporter(t, opts...)
}

// Request tracing and SLO layer.
type (
	// RequestTracer mints request-scoped traces with seeded-deterministic
	// IDs. A nil *RequestTracer disables tracing (nil spans, no-ops).
	RequestTracer = reqtrace.Tracer
	// RequestSpan is one timed operation in a request's trace tree, the
	// only span type there is. Thread it through Options.Trace to hang
	// the join phases, and the finished join's Stats, under it.
	RequestSpan = reqtrace.Span
	// FlightRecorder keeps the N slowest and N most recent finished
	// request traces for /debug/requests.
	FlightRecorder = reqtrace.Recorder
	// SLOEngine evaluates availability and latency objectives over
	// rolling windows of telemetry snapshots.
	SLOEngine = slo.Engine
	// SLOObjective is one availability or latency objective.
	SLOObjective = slo.Objective
	// MetricsExporterOption configures a MetricsExporter.
	MetricsExporterOption = metrics.ExporterOption
)

// DefaultSLOWindow is the default rolling window for SLO objectives.
const DefaultSLOWindow = slo.DefaultWindow

// NewRequestTracer creates a tracer whose IDs derive from seed and
// whose timestamps come from the wall clock — the serving-path
// constructor. Tests wanting byte-stable traces use reqtrace.NewTracer
// with an injected clock instead.
func NewRequestTracer(seed uint64) *RequestTracer {
	return reqtrace.NewTracer(seed, time.Now)
}

// NewFlightRecorder creates a recorder keeping up to n slowest and n
// most recent traces.
func NewFlightRecorder(n int) *FlightRecorder { return reqtrace.NewRecorder(n) }

// FlightRecorderHandler serves a recorder under prefix: an HTML+JSON
// listing at the prefix and one trace's tree at prefix+"/{traceID}".
func FlightRecorderHandler(rec *FlightRecorder, prefix string) http.Handler {
	return reqtrace.Handler(rec, prefix)
}

// NewSLOEngine creates an SLO engine over a collector, evaluating the
// objectives over a rolling window against the wall clock. Export its
// gauges by constructing the exporter with WithSLOGauges.
func NewSLOEngine(t *Telemetry, window time.Duration, objectives []SLOObjective) (*SLOEngine, error) {
	return slo.New(t, time.Now, window, objectives)
}

// WithSLOGauges injects an SLO engine's textjoin_slo_* gauge families
// into every scrape of a MetricsExporter.
func WithSLOGauges(e *SLOEngine) MetricsExporterOption {
	return metrics.WithExtraGauges(e.Gauges)
}

// ParseAlgorithm maps "hhnl", "hvnl", "vvm" or "lsh" to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ParseWeighting maps "raw", "cosine" or "tfidf" to a Weighting.
func ParseWeighting(s string) (Weighting, error) { return document.ParseWeighting(s) }

// NewLocalMapping builds the memory-resident local → standard term-number
// mapping for an autonomous IR system from its vocabulary.
func NewLocalMapping(system string, dict *Dictionary, localVocab map[uint32]string) (*LocalMapping, error) {
	return termmap.NewLocalMapping(system, dict, localVocab)
}

// Workspace owns a simulated disk and provides convenience builders.
type Workspace struct {
	disk *iosim.Disk
}

// WorkspaceOption configures a workspace.
type WorkspaceOption func(*workspaceConfig)

type workspaceConfig struct {
	pageSize int
	alpha    float64
	ioDelay  time.Duration
}

// WithPageSize sets the simulated page size in bytes (default 4096).
func WithPageSize(n int) WorkspaceOption {
	return func(c *workspaceConfig) { c.pageSize = n }
}

// WithAlpha sets the random/sequential I/O cost ratio (default 5).
func WithAlpha(a float64) WorkspaceOption {
	return func(c *workspaceConfig) { c.alpha = a }
}

// WithIODelay makes every simulated page read cost d of real wall-clock
// time (default 0: reads are free). The I/O accounting is unchanged;
// the knob exists so serving benchmarks can model device latency that
// concurrent requests overlap and serialized ones cannot.
func WithIODelay(d time.Duration) WorkspaceOption {
	return func(c *workspaceConfig) { c.ioDelay = d }
}

// NewWorkspace creates a workspace over a fresh simulated disk.
func NewWorkspace(opts ...WorkspaceOption) *Workspace {
	cfg := workspaceConfig{pageSize: iosim.DefaultPageSize, alpha: iosim.DefaultAlpha}
	for _, o := range opts {
		o(&cfg)
	}
	return &Workspace{disk: iosim.NewDisk(
		iosim.WithPageSize(cfg.pageSize),
		iosim.WithAlpha(cfg.alpha),
		iosim.WithReadDelay(cfg.ioDelay),
	)}
}

// Disk exposes the underlying simulated disk (for I/O statistics).
func (w *Workspace) Disk() *Disk { return w.disk }

// ResetIOStats zeroes the disk's I/O counters, typically after the build
// phase so only join-time I/O is measured.
func (w *Workspace) ResetIOStats() { w.disk.ResetStats() }

// ParkHeads parks every file's head so the next read of each file
// counts as random regardless of prior activity — call it between
// measured runs to make their I/O classification order-independent.
func (w *Workspace) ParkHeads() { w.disk.ParkHeads() }

// IOView is a read-only I/O session over the workspace disk: it carries
// its own head positions (initially parked) and its own IOStats, and
// merges its counters back into the shared totals on Close. Bind a
// join's Inputs to a view with Inputs.WithView, and any number of joins
// can run concurrently, each reporting the same results and Stats a
// serial run would.
type IOView = iosim.View

// Snapshot opens a read-only I/O session over the workspace's immutable
// built structures. Call Close on the returned view when the request is
// done so its I/O counters merge into the workspace totals.
func (w *Workspace) Snapshot() *IOView { return w.disk.View() }

// SetTelemetry attaches a collector to the workspace disk so per-file
// sequential/random read counters and page/latency histograms are
// recorded; nil detaches.
func (w *Workspace) SetTelemetry(t *Telemetry) { w.disk.SetCollector(t) }

// NewCollection stores documents (ids must be dense from 0) as a
// collection on the workspace disk.
func (w *Workspace) NewCollection(name string, docs []*Document) (*Collection, error) {
	f, err := w.disk.Create(name)
	if err != nil {
		return nil, err
	}
	b, err := collection.NewBuilder(name, f)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		if err := b.Add(d); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// BuildInvertedFile builds a collection's inverted file and B+tree on the
// workspace disk.
func (w *Workspace) BuildInvertedFile(c *Collection) (*InvertedFile, error) {
	return invfile.BuildOn(w.disk, c)
}

// GenerateCorpus synthesizes a collection matching the profile.
func (w *Workspace) GenerateCorpus(p Profile, seed int64) (*Collection, error) {
	return corpus.GenerateOn(w.disk, p.Name, p, seed)
}

// GenerateProfile synthesizes the paper profile called profile ("wsj",
// "fr" or "doe", in any case) shrunk by the divisor scale (Profile.Scaled)
// and stores it as the collection name, so two collections of one
// profile can share a workspace.
func (w *Workspace) GenerateProfile(name, profile string, scale, seed int64) (*Collection, error) {
	p, err := corpus.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	p.Name = name
	return w.GenerateCorpus(p, seed)
}

// Save serializes the workspace's simulated disk — every collection,
// inverted file and B+tree — to w, so structures built once can be
// restored in another process with LoadWorkspace.
func (w *Workspace) Save(dst io.Writer) (int64, error) {
	return w.disk.WriteTo(dst)
}

// LoadWorkspace restores a workspace from a Save snapshot. The restored
// disk starts with cold heads and zero I/O counters; use OpenCollection
// and OpenInvertedFile to re-attach handles.
func LoadWorkspace(src io.Reader) (*Workspace, error) {
	d, err := iosim.ReadDisk(src)
	if err != nil {
		return nil, err
	}
	return &Workspace{disk: d}, nil
}

// OpenCollection re-attaches to a collection of numDocs documents stored
// under name (one sequential statistics-rebuilding scan).
func (w *Workspace) OpenCollection(name string, numDocs int64) (*Collection, error) {
	f, err := w.disk.Open(name)
	if err != nil {
		return nil, err
	}
	return collection.Open(name, f, numDocs)
}

// OpenInvertedFile re-attaches to the inverted file built for c by
// BuildInvertedFile.
func (w *Workspace) OpenInvertedFile(c *Collection) (*InvertedFile, error) {
	return invfile.OpenOn(w.disk, c)
}

// NewDocument builds a document from a term → occurrences map.
func NewDocument(id uint32, counts map[uint32]int) *Document {
	return document.New(id, counts)
}

// NewBatch wraps ad-hoc query documents as a memory-resident join source:
// iterating it costs no I/O, and only HHNL and HVNL apply (no inverted
// file exists for a batch).
func NewBatch(name string, docs []*Document) (*Batch, error) {
	return collection.NewBatch(name, docs)
}

// NewDictionary creates an empty standard term dictionary.
func NewDictionary() *Dictionary { return termmap.NewDictionary() }

// NewTokenizer creates a tokenizer over a shared dictionary.
func NewTokenizer(dict *Dictionary) *Tokenizer {
	return tokenize.New(dict, tokenize.Options{})
}

// Join failure classes, for callers (such as servers) that map them to
// distinct outcomes. Match with errors.Is: join errors wrap these.
var (
	// ErrInsufficientMemory marks a join whose memory budget cannot
	// hold the algorithm's minimal working set.
	ErrInsufficientMemory = core.ErrInsufficientMemory
	// ErrMissingInput marks a join lacking a required structure (an
	// inverted file, a collection needed by the weighting, ...).
	ErrMissingInput = core.ErrMissingInput
)

// Join runs one of the four join families: the paper's exact HHNL, HVNL
// and VVM, or the approximate LSH join (candidate pairs from shared
// MinHash buckets — Options.LSH must carry the inner sidecar — verified
// with the exact scorer: perfect precision, bounded recall). Every join
// runs on the calling goroutine; concurrent joins, each on its own
// Workspace.Snapshot view, are what use more cores.
func Join(alg Algorithm, in Inputs, opts Options) ([]Result, *JoinStats, error) {
	return core.Join(alg, in, opts)
}

// JoinIntegrated estimates all three costs and runs the cheapest
// algorithm — the paper's integrated algorithm — with the given options.
func JoinIntegrated(in Inputs, opts Options) ([]Result, *JoinStats, Decision, error) {
	return core.JoinIntegrated(in, opts)
}

// ResultDigest fingerprints a result set — outer ids, match ids and the
// exact similarity bits, each as an 8-byte little-endian word through
// FNV-1a — so two joins that produced byte-identical rankings share it.
// It is the one digest: a BENCH_BASELINE.json cell's results_hash and a
// textjoind trace's result.hash are this string.
func ResultDigest(results []Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range results {
		put(uint64(r.Outer))
		for _, m := range r.Matches {
			put(uint64(m.Doc))
			put(math.Float64bits(m.Sim))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Choose runs only the integrated algorithm's selection step.
func Choose(in Inputs, opts Options) (Decision, error) {
	return core.Choose(in, opts)
}

// EstimateCosts evaluates all six cost formulas of Section 5.
func EstimateCosts(in CostInput, sys System, q QueryParams) []Estimate {
	return costmodel.EstimateAll(in, sys, q)
}

// Profiles returns the paper's WSJ, FR and DOE collection profiles.
func Profiles() []Profile { return corpus.Profiles() }

// NewCatalog creates an empty query catalog.
func NewCatalog() *Catalog { return query.NewCatalog() }

// NewEngine creates a query engine over a catalog.
func NewEngine(cat *Catalog) *Engine { return query.NewEngine(cat) }

// NewRelation creates an in-memory relation.
func NewRelation(name string, columns []Column) (*Relation, error) {
	return relation.New(name, columns)
}

// Attribute types for relation columns.
const (
	// StringType is a character attribute.
	StringType = relation.String
	// IntType is an integer attribute.
	IntType = relation.Int
	// TextType is a textual attribute referencing a document.
	TextType = relation.Text
)

// Values.
var (
	// StringValue makes a string attribute value.
	StringValue = relation.StringValue
	// IntValue makes an integer attribute value.
	IntValue = relation.IntValue
	// TextValue makes a text attribute value referencing a document.
	TextValue = relation.TextValue
)

// Extensions beyond the conference paper (its "further studies" items).

// Extended cost model (CPU + communication, further-studies item 2).
type (
	// CPUParams configures CPU-cost accounting in the extended model.
	CPUParams = costmodel.CPUParams
	// NetParams configures communication-cost accounting.
	NetParams = costmodel.NetParams
	// CostBreakdown decomposes an estimate into I/O, CPU and
	// communication components.
	CostBreakdown = costmodel.Breakdown
)

// EstimateTotalCosts evaluates the extended (I/O + CPU + communication)
// model for all three algorithms.
func EstimateTotalCosts(in CostInput, sys System, q QueryParams, cpu CPUParams, net NetParams) []CostBreakdown {
	return costmodel.EstimateAllTotal(in, sys, q, cpu, net)
}

// Signature prefiltering.
type (
	// IDMap records a reordering: IDMap[newID] is the original id.
	IDMap = cluster.IDMap
	// SignatureConfig shapes the superimposed term codes (bits, hashes
	// per bucket, terms per bucket, docs per cluster aggregate).
	SignatureConfig = signature.Config
	// SignatureSidecar is a collection's signature file: per-document,
	// per-page and per-cluster aggregates, memory-resident once opened.
	SignatureSidecar = signature.Sidecar
	// Prefilter supplies sidecars to a join via Options.Prefilter; the
	// joins use them only to skip provably empty work, so results are
	// byte-identical with and without it.
	Prefilter = core.Prefilter
	// PrefilterStats reports pages/clusters/docs skipped and false
	// passes for one join (JoinStats.Prefilter).
	PrefilterStats = core.PrefilterStats
)

// Approximate (LSH) joining.
type (
	// LSHConfig shapes the MinHash/banding signatures (bands, rows per
	// band, seed).
	LSHConfig = lsh.Config
	// LSHSidecar is a collection's MinHash band-key file with its
	// in-memory bucket tables, memory-resident once opened. Supply it to
	// Join(LSH, ...) (or the integrated planner) via Options.LSH.
	LSHSidecar = lsh.Sidecar
	// LSHStats reports an approximate join's bucket-probe outcome
	// (JoinStats.LSH).
	LSHStats = core.LSHStats
)

// BuildLSH builds and stores c's MinHash sidecar ("<name>.lsh" on the
// workspace disk), returning the memory-resident handle with its bucket
// tables.
func (w *Workspace) BuildLSH(c *Collection, cfg LSHConfig) (*LSHSidecar, error) {
	f, err := w.disk.Create(c.Name() + ".lsh")
	if err != nil {
		return nil, err
	}
	return lsh.Build(c, f, cfg)
}

// OpenLSH re-attaches to the sidecar built for c by BuildLSH (one
// sequential load of the sidecar file, bucket tables rebuilt in memory).
func (w *Workspace) OpenLSH(c *Collection) (*LSHSidecar, error) {
	f, err := w.disk.Open(c.Name() + ".lsh")
	if err != nil {
		return nil, err
	}
	return lsh.Open(f)
}

// BuildSignatures builds and stores c's signature sidecar ("<name>.sig"
// on the workspace disk), returning the memory-resident handle.
func (w *Workspace) BuildSignatures(c *Collection, cfg SignatureConfig) (*SignatureSidecar, error) {
	f, err := w.disk.Create(c.Name() + ".sig")
	if err != nil {
		return nil, err
	}
	return signature.Build(c, f, cfg)
}

// OpenSignatures re-attaches to the sidecar built for c by
// BuildSignatures (one sequential load of the sidecar file).
func (w *Workspace) OpenSignatures(c *Collection) (*SignatureSidecar, error) {
	f, err := w.disk.Open(c.Name() + ".sig")
	if err != nil {
		return nil, err
	}
	return signature.Open(f)
}

// ClusteredLayout is the product of BuildClusteredLayout: the reordered
// collection with every dependent structure rebuilt against the new ids.
type ClusteredLayout struct {
	// Collection is the reordered collection.
	Collection *Collection
	// IDMap maps the new ids back to the originals.
	IDMap IDMap
	// Signatures is the sidecar built over the reordered layout.
	Signatures *SignatureSidecar
	// InvertedFile is the id-remapped inverted file, or nil when no
	// source inverted file was supplied.
	InvertedFile *InvertedFile
}

// BuildClusteredLayout runs the full cluster-driven build path: store
// src as name in a greedy order whose neighbors share many terms — the
// tractable counterpart of the paper's NP-hard optimal-order
// proposition, realizing its clustered-collection scenario for HVNL —
// build the signature sidecar over the new layout (clustering is what
// makes the aggregates selective), and — when srcInv is given — rewrite
// the inverted file with the remapped ids so HVNL probes stay consistent
// with the reordered collection.
func (w *Workspace) BuildClusteredLayout(name string, src *Collection, srcInv *InvertedFile, cfg SignatureConfig) (*ClusteredLayout, error) {
	f, err := w.disk.Create(name)
	if err != nil {
		return nil, err
	}
	c, idmap, err := cluster.Clustered(name, f, src)
	if err != nil {
		return nil, err
	}
	sc, err := w.BuildSignatures(c, cfg)
	if err != nil {
		return nil, err
	}
	lay := &ClusteredLayout{Collection: c, IDMap: idmap, Signatures: sc}
	if srcInv != nil {
		inv := idmap.Inverse()
		lay.InvertedFile, err = invfile.BuildRemappedOn(w.disk, c, srcInv, func(orig uint32) uint32 { return inv[orig] })
		if err != nil {
			return nil, err
		}
	}
	return lay, nil
}
