package core

import (
	"fmt"

	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
	"textjoin/internal/stats"
)

// Auto asks Plan for the integrated algorithm's choice.
const Auto Algorithm = -1

// Decision is a planned join: the algorithm it runs, why, and the bytes it
// holds. Plan makes one, for the integrated choice or a forced algorithm,
// and Run executes it.
type Decision struct {
	Chosen Algorithm
	// Estimates are every candidate's cost estimates (nil when forced).
	Estimates []costmodel.Estimate
	// Prefiltered marks that the plan uses the signature prefilter: an
	// HHNL plan offered Options.Prefilter.
	Prefiltered bool
	// EstimatedRecall is the recall the chosen plan promises: exactly 1
	// for the exact algorithms, the banding S-curve estimate when the
	// approximate LSH join won (which requires Options.LSH and a
	// RecallSLO strictly between 0 and 1 that the estimate meets).
	EstimatedRecall float64
	// PeakBytes is the most memory the plan holds at once, its result
	// rows included: what an admission budget charges for it.
	PeakBytes int64

	estimate float64 // the chosen plan's estimated cost
	mem      memory
}

// Plan plans one join without reading a page: alg is a forced algorithm,
// or Auto for the integrated algorithm's cheapest estimate. Its error is
// the join's own when the inputs lack a structure the algorithm needs
// (ErrMissingInput) or B cannot hold its minimal working set
// (ErrInsufficientMemory). A forced plan allocates nothing.
func Plan(alg Algorithm, in Inputs, opts Options) (Decision, error) {
	opts = opts.withDefaults(in)
	if err := opts.validate(); err != nil {
		return Decision{}, err
	}
	if _, err := activePrefilter(in, opts); err != nil {
		return Decision{}, err
	}
	dec := Decision{Chosen: alg, EstimatedRecall: 1}
	name := "forced"
	if alg == Auto {
		name = "integrated.choose"
	}
	span := opts.Trace.StartChild(reqtrace.PhasePlan, name)
	defer span.End()
	cut := cutOuter(in, opts)
	var err error
	if alg == Auto {
		if dec, err = choose(in, opts, cut); err != nil {
			return dec, err
		}
		recordPlan(span, dec)
	} else {
		span.SetAttr("plan.chosen", alg.String())
		dec.Prefiltered = opts.Prefilter != nil && alg == HHNL
	}
	if !dec.Prefiltered {
		opts.Prefilter = nil
	}
	dec.mem, err = planMemory(dec.Chosen, in, opts, cut)
	dec.PeakBytes = dec.mem.held
	span.SetInt("plan.peak_bytes", dec.PeakBytes)
	return dec, err
}

// Run executes the plan on in, which may be the planned inputs bound to
// another I/O view; opts must be the planned options (Trace aside). The
// rows it returns are the caller's: it joins into a new row set.
func (d Decision) Run(in Inputs, opts Options) ([]Result, *Stats, error) {
	return d.RunInto(in, opts, new(Rows))
}

// RunInto is Run into the caller's row set: the rows it returns alias
// rows, and hold until the next RunInto on it.
func (d Decision) RunInto(in Inputs, opts Options, rows *Rows) ([]Result, *Stats, error) {
	if d.mem == (memory{}) {
		return nil, nil, fmt.Errorf("core: Decision.Run needs a Decision made by Plan")
	}
	opts = opts.withDefaults(in)
	if !d.Prefiltered {
		// The unfiltered plan won on estimated cost, or the family does
		// not prune: run it without the filter.
		opts.Prefilter = nil
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}
	results, stats, err := runs[d.Chosen](in, opts, d.mem, scorer, rows)
	if err == nil && d.Estimates != nil {
		recordPlanAudit(opts.Trace, d, stats.Cost)
	}
	return results, stats, err
}

// runs are the join families, each given its memory plan, its scorer and
// the row set it fills.
var runs = [...]func(Inputs, Options, memory, *document.Scorer, *Rows) ([]Result, *Stats, error){
	HHNL: runHHNL, HVNL: runHVNL, VVM: runVVM, LSH: runLSH}

// Join runs the given algorithm: Plan, then Run.
func Join(alg Algorithm, in Inputs, opts Options) ([]Result, *Stats, error) {
	dec, err := Plan(alg, in, opts)
	if err != nil {
		return nil, nil, err
	}
	return dec.Run(in, opts)
}

// JoinIntegrated implements the paper's integrated algorithm: estimate the
// cost of each basic algorithm from the collection statistics, system
// parameters and query parameters, then run the one with the lowest
// estimated cost.
func JoinIntegrated(in Inputs, opts Options) ([]Result, *Stats, Decision, error) {
	dec, err := Plan(Auto, in, opts)
	if err != nil {
		return nil, nil, dec, err
	}
	results, stats, err := dec.Run(in, opts)
	return results, stats, dec, err
}

// delta is δ, the estimated fraction of non-zero similarities that sizes
// HVNL's accumulator reservation and VVM's partitions: the paper's base
// value.
const delta = 0.1

// Bytes of the structures a join holds beside its share of B.
const (
	accumBytes = 8  // a float64 similarity accumulator
	twinBytes  = 4  // its int32 twin in the block joins' row (accum.Exact)
	slotBytes  = 4  // an int32 slot of a table indexed by term number
	matchBytes = 16 // a kept match: inner id and float64 similarity
	barBytes   = 12 // a tracker slab's slot beside its matches: an int32 count and a float64 bar
	rowBytes   = 32 // a Result: outer id and match slice
)

// trackerBytes is one slot of a tracker slab (topk.Block): λ kept matches,
// their count and the bar.
func trackerBytes(lambda int) int64 { return int64(lambda)*matchBytes + barBytes }

// memory is the one memory model. It splits B·P bytes among a join
// family's parts exactly as the paper's formulas do, and adds up what the
// join will hold: the parts of that split the data can fill, plus what
// lies outside it — the float64 accumulators, the term-indexed tables, the
// λ-trackers and the result rows held until the reply is written.
// Stats.PeakMemoryBytes counts the same parts as the join allocates them.
type memory struct {
	cut             outerCut // block families: the resident batches
	outerDoc, cache int64    // HVNL: ⌈S2⌉ pages, the entry cache's share
	passBytes       int64    // VVM: M = (B − ⌈J1⌉ − ⌈J2⌉)·P
	passes          int      // VVM: ⌈SM/M⌉ ranges, at most one per outer document
	storeBytes      int64    // VVM: the largest matrix a pass starts dense in
	held            int64
}

// planMemory computes alg's memory plan from Options, the inputs' resident
// statistics and the plan's walk of the outer directory.
func planMemory(alg Algorithm, in Inputs, opts Options, cut outerCut) (memory, error) {
	var m memory
	missing := ""
	switch {
	case alg < HHNL || alg > LSH:
		return m, fmt.Errorf("core: unknown algorithm %v", alg)
	case in.Outer == nil || in.Inner == nil:
		missing = "both document collections"
	case alg == HVNL && in.InnerInv == nil:
		missing = "the inner inverted file"
	case alg == VVM && (in.InnerInv == nil || in.OuterInv == nil):
		missing = "both inverted files"
	case alg == VVM && in.Outer.Base() == nil:
		// A memory-resident query batch has no inverted file — the paper's
		// point that "the availability of inverted files means the
		// applicability of certain algorithms".
		missing = "a stored outer collection, not a query batch"
	}
	if missing != "" {
		return m, fmt.Errorf("%w: %v needs %s", ErrMissingInput, alg, missing)
	}
	n1, n2, lambda := in.Inner.NumDocs(), in.Outer.NumDocs(), int64(opts.Lambda)
	pageSize := int64(in.Inner.File().PageSize())
	if alg == HVNL || alg == VVM {
		pageSize = int64(in.InnerInv.File().PageSize())
	}
	total := opts.MemoryPages * pageSize
	tracker, slabSlot := lambda*matchBytes, trackerBytes(opts.Lambda)
	rows := n2 * (rowBytes + tracker)
	switch {
	case alg == HHNL || alg == LSH:
		// X = (B − ⌈S1⌉) / (S2 + 4λ/P), in bytes (runHHNL): the cut's
		// largest batch, its slots and its directory, and beside the rows'
		// matches the count and bar of every outer document's tracker.
		m.cut = cut
		if cut.over >= 0 {
			bytes, _ := in.Outer.DocSize(cut.over)
			return m, fmt.Errorf("%w: B=%d pages cannot hold outer document %d of %s (%d bytes with its similarity slots) beside one inner document (%d bytes reserved)",
				ErrInsufficientMemory, opts.MemoryPages, cut.over, in.Outer.Name(), bytes+4*lambda, cut.reserve)
		}
		slots := int64(cut.slots)
		m.held = cut.reserve + cut.fill + slots*(accumBytes+twinBytes) + n2*barBytes + termSpan(in.Outer)*slotBytes + rows
		if alg == HHNL && opts.Prefilter != nil {
			m.held += n1 // the keep vector
		} else if alg == LSH {
			sc, err := activeLSH(in, opts)
			if err != nil {
				return m, err
			}
			// Each resident document's candidates, in per-inner lists
			// grown by appending: up to twice their length.
			candFrac, _ := sc.SelfProbe()
			m.held += n1*lshDocBytes + 2*4*int64(candFrac*float64(slots*n1))
		}
	case alg == HVNL:
		// The entry cache's X (runHVNL); the B+tree has 9 bytes per term.
		inv := in.InnerInv.Stats()
		m.outerDoc = iosim.PagesForBytes(int64(avgBytes(cut.bytes, n2)+0.999), int(pageSize)) * pageSize
		btree := iosim.PagesForBytes(inv.Entries*codec.BTreeCellSize, int(pageSize)) * pageSize
		acc := int64(4 * float64(n1) * delta)
		if m.cache = total - m.outerDoc - btree - acc; m.cache <= 0 {
			return m, fmt.Errorf("%w: B=%d pages leaves no room for inverted entries (doc %d + btree %d + accumulators %d bytes)",
				ErrInsufficientMemory, opts.MemoryPages, m.outerDoc, btree, acc)
		}
		// The in-memory term list costs |t#| = 3 bytes per resident entry:
		// the paper adds X·|t#|/P to the memory use, the cache charges 3
		// bytes on each entry beside its packed size.
		m.held = m.outerDoc + btree + min(m.cache, inv.Bytes+3*inv.Entries) + n1*accumBytes +
			in.Inner.TermSpan()*slotBytes + tracker + rows
	case alg == VVM:
		// ⌈SM/M⌉ ranges of the outer documents (runVVM).
		sm := int64(4 * delta * float64(n1) * float64(n2))
		j1 := iosim.PagesForBytes(int64(in.InnerInv.Stats().J*float64(pageSize)+0.999), int(pageSize))
		j2 := iosim.PagesForBytes(int64(in.OuterInv.Stats().J*float64(pageSize)+0.999), int(pageSize))
		if m.passBytes = total - (j1+j2)*pageSize; m.passBytes <= 0 {
			return m, fmt.Errorf("%w: B=%d pages cannot hold one inverted entry from each file", ErrInsufficientMemory, opts.MemoryPages)
		}
		m.passes = int(min(n2, max(1, (sm+m.passBytes-1)/m.passBytes)))
		// A pass starts dense when its matrix fits M. Otherwise it starts
		// as the table unless δ̂·rows·N1 pairs, δ̂ measured from the
		// document-frequency tables, would promote that table anyway: then
		// every pass starts in the largest pass's matrix.
		largest, tableRows := int64(m.largest(int(n2))), int64(0)
		m.storeBytes = m.passBytes
		if !accum.UseDense(int(largest), int(n1), m.passBytes) {
			pairs := int64(stats.Delta(in.Inner, in.Outer.Base()) * float64(largest) * float64(n1))
			if accum.Promotes(int(largest), int(n1), pairs) {
				m.storeBytes = largest * n1 * accumBytes
			} else {
				// A pass that starts as the table drains into a slab
				// with a tracker per row.
				tableRows = largest
			}
		}
		// The store holds at most the largest pass's matrix (at least the
		// smallest table, 16 key-value slots).
		m.held = (j1+j2)*pageSize + max(largest*n1*accumBytes, 16*16) + tracker + tableRows*slabSlot + rows
	}
	return m, nil
}

// lshDocBytes is LSH's state per inner document: list header, flag, stamp.
const lshDocBytes = 24 + 1 + 8

// largest returns the row count of VVM's largest pass over n outer
// documents: every pass has ⌊n/passes⌋ or ⌈n/passes⌉ rows, the last the
// ceiling.
func (m memory) largest(n int) int {
	if m.passes == 0 {
		return 0
	}
	return n - (m.passes-1)*n/m.passes
}

// outerCut is Plan's one walk of the outer directory: the outer side's
// packed bytes, and its cut by nextBatch into HHNL's and LSH's batches.
type outerCut struct {
	bytes           int64 // the outer documents' packed bytes in all
	reserve, budget int64 // ⌈S1⌉ whole pages (at least one) for the streamed inner document; the rest of B·P
	batches         int
	slots, cells    int   // the most documents, and the most cells, one batch holds
	fill            int64 // the most bytes one batch charges
	over            int   // the first document no batch can hold, -1 for none
}

// cutOuter walks the outer directory once for Plan. It reads no page.
func cutOuter(in Inputs, opts Options) outerCut {
	c := outerCut{over: -1}
	if in.Outer == nil || in.Inner == nil {
		return c
	}
	st, pageSize := in.Inner.Stats(), int64(in.Inner.File().PageSize())
	c.reserve = max(pageSize, iosim.PagesForBytes(int64(avgBytes(st.Bytes, st.N)+0.999), int(pageSize))*pageSize)
	c.budget = opts.MemoryPages*pageSize - c.reserve
	overhead := 4 * int64(opts.Lambda)
	for start, n := 0, int(in.Outer.NumDocs()); start < n; {
		end, used, cells := nextBatch(in.Outer, start, c.budget, overhead)
		if used > c.budget && c.over < 0 {
			c.over = start
		}
		c.batches++
		c.slots, c.cells, c.fill = max(c.slots, end-start), max(c.cells, cells), max(c.fill, used)
		c.bytes += used - int64(end-start)*overhead
		start = end
	}
	return c
}

// nextBatch is the one rule, the plan's and the run's, that cuts the outer
// stream: the batch from document start on ends before the first document
// that would overflow budget, each charging its packed bytes plus overhead.
// It returns the end, the bytes charged and the cells held. A batch holds
// at least one document, which may alone overflow.
func nextBatch(r collection.Reader, start int, budget, overhead int64) (end int, used int64, cells int) {
	n := int(r.NumDocs())
	for end = start; end < n; end++ {
		bytes, k := r.DocSize(end)
		if end > start && used+bytes+overhead > budget {
			break
		}
		used, cells = used+bytes+overhead, cells+k
	}
	return end, used, cells
}

// avgBytes is the average size of n documents of bytes packed bytes in all.
func avgBytes(bytes, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(bytes) / float64(n)
}

// termSpan is the length of a table indexed by r's term numbers.
func termSpan(r collection.Reader) int64 {
	if base := r.Base(); base != nil {
		return base.TermSpan()
	}
	terms := r.Terms() // a memory-resident batch: its own terms
	if len(terms) == 0 {
		return 0
	}
	return int64(terms[len(terms)-1]) + 1
}
