package core

import (
	"fmt"
	"slices"
	"sync"

	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/lsh"
)

// runLSH evaluates the join approximately with MinHash/banding buckets.
// It runs the block skeleton of HHNL (same memory policy, same batch
// boundaries, on the calling goroutine), but instead of scanning the whole
// inner collection per batch, each resident outer document's band keys probe
// the inner sidecar's buckets, and only the inner documents that share at
// least one bucket with some resident outer document are read — via the
// same filtered scan the signature prefilter uses, so pages with no
// candidates are never read — and scored against exactly the resident
// outer documents they collided with.
//
// Every candidate pair is verified with the exact similarity (the block
// scoring of hhnl.go) before it may enter a λ-tracker, so precision is perfect: any returned (outer,
// inner, sim) triple is byte-identical to what the exact joins compute
// for that pair. What LSH trades away is recall — a truly similar pair
// whose band keys never collide is missed. The expected recall for a
// pair of Jaccard similarity s is 1 − (1 − s^r)^b (costmodel.Recall),
// which the cost model exposes to the integrated planner.
//
// Options.LSH must hold the sidecar built over Inputs.Inner's current
// layout. Options.Prefilter is ignored: bucket candidate generation
// subsumes the signature skip.
func runLSH(in Inputs, opts Options, m memory, scorer *document.Scorer, rows *Rows) ([]Result, *Stats, error) {
	sc, err := activeLSH(in, opts)
	if err != nil {
		return nil, nil, err
	}
	ws := blockStates.Get()
	defer blockStates.Put(ws)
	b := blockJoin{in: in, opts: opts, mem: m, scorer: scorer, ws: ws, rows: rows, prepName: "lsh.candidates", scanName: "lsh.verify-scan",
		stats: &Stats{Algorithm: LSH, InnerDocs: in.Inner.NumDocs(), LSH: LSHStats{Enabled: true}}}
	gen := newLSHCandidates(sc, in, &ws.lsh)
	b.prepare = func(batch []document.Document) ([]bool, [][]int32, error) {
		err := gen.generate(batch, b.stats)
		b.extra = max(b.extra, gen.bytes())
		return gen.keep, gen.lists, err
	}
	return b.run()
}

// activeLSH validates Options.LSH against the inputs. A sidecar that
// does not match its collection is an error: band keys computed over a
// different layout would bucket the wrong documents.
func activeLSH(in Inputs, opts Options) (*lsh.Sidecar, error) {
	sc := opts.LSH
	if sc == nil {
		return nil, fmt.Errorf("%w: LSH needs the inner MinHash sidecar", ErrMissingInput)
	}
	if in.Inner != nil && int64(sc.NumDocs()) != in.Inner.NumDocs() {
		return nil, fmt.Errorf("core: LSH sidecar covers %d docs, collection has %d — rebuild the sidecar",
			sc.NumDocs(), in.Inner.NumDocs())
	}
	return sc, nil
}

// lshCandidates is the per-batch candidate state of one join: for each
// inner document, the batch indices of the resident outer documents it
// must be verified against, plus the keep vector the filtered scan
// consumes. Its lists live in the block state and are reused across
// batches and joins.
type lshCandidates struct {
	*lshLists
	sc *lsh.Sidecar
	in Inputs
}

// lshLists is LSH's part of the block state.
type lshLists struct {
	lists [][]int32 // inner id → batch indices, ascending
	keep  []bool
	stamp []int   // inner id → last outer probe that added it
	most  []int32 // inner id → the longest its list grew in this join
	probe int     // never reset, so every stamp of an earlier join is below it
	keys  []uint64
}

func newLSHCandidates(sc *lsh.Sidecar, in Inputs, l *lshLists) *lshCandidates {
	n := int(in.Inner.NumDocs())
	l.lists = slices.Grow(l.lists[:0], n)[:n]
	l.keep = slices.Grow(l.keep[:0], n)[:n]
	l.stamp = slices.Grow(l.stamp[:0], n)[:n]
	l.most = slices.Grow(l.most[:0], n)[:n]
	clear(l.most)
	return &lshCandidates{lshLists: l, sc: sc, in: in}
}

// generate probes the buckets with every batch document's band keys.
// Each (outer, inner) pair appends exactly once (bands are deduplicated
// with a stamp per outer probe), in ascending batch order within each
// inner list, so the verify order — and with it every tracker's Offer
// order — is deterministic. Skip counters accrue into st.
func (g *lshCandidates) generate(batch []document.Document, st *Stats) error {
	cfg := g.sc.Config()
	for id := range g.lists {
		g.lists[id] = g.lists[id][:0]
		g.keep[id] = false
	}
	for i := range batch {
		g.keys = cfg.Keys(&batch[i], g.keys)
		g.probe++
		for b, key := range g.keys {
			st.LSH.BucketProbes++
			for _, id := range g.sc.Bucket(b, key) {
				if g.stamp[id] != g.probe {
					g.stamp[id] = g.probe
					g.lists[id] = append(g.lists[id], int32(i))
					g.keep[id] = true
					st.LSH.Candidates++
				}
			}
		}
	}
	kept := 0
	for _, k := range g.keep {
		if k {
			kept++
		}
	}
	st.LSH.DocsSkipped += int64(len(g.keep) - kept)
	touched, err := touchedPages(g.in.Inner, g.keep)
	if err != nil {
		return err
	}
	st.LSH.PagesSkipped += g.in.Inner.File().Pages() - touched
	return nil
}

// bytes is what the candidate state holds: per inner document a list
// header, a keep flag and a stamp, and the lists' candidates, each list
// charged the capacity appending has grown it to in this join: so a list
// kept from an earlier join charges what a new one would.
func (g *lshCandidates) bytes() int64 {
	longest := int32(0)
	for id, l := range g.lists {
		g.most[id] = max(g.most[id], int32(len(l)))
		longest = max(longest, g.most[id])
	}
	caps := appendCaps(int(longest))
	n := int64(len(g.lists)) * lshDocBytes
	for _, most := range g.most {
		n += int64(caps[most]) * 4
	}
	return n
}

// listGrowth memoizes appendCaps across joins.
var listGrowth struct {
	sync.Mutex
	caps []int
}

// appendCaps returns caps with caps[n], for every n up to most, the
// capacity of a []int32 grown from nil by one append at a time once it
// holds n elements. The table grows, measured by appending, only past the
// longest list a join has held.
func appendCaps(most int) []int {
	listGrowth.Lock()
	defer listGrowth.Unlock()
	caps := listGrowth.caps
	if caps == nil {
		caps = []int{0}
	}
	for n := len(caps); n <= most; n++ {
		c := caps[n-1]
		if n > c {
			c = cap(append(make([]int32, c), 0))
		}
		caps = append(caps, c)
	}
	listGrowth.caps = caps
	return caps
}

// measureLSH probes the sidecar's resident bucket tables for the
// planner: candidate volume and scan-run counts feed the cost formula,
// the banding shape feeds the recall curve. CPU-only and deterministic.
func measureLSH(sc *lsh.Sidecar) costmodel.LSH {
	candFrac, runs := sc.SelfProbe()
	cfg := sc.Config()
	return costmodel.LSH{
		SidecarPages:  float64(sc.Pages()),
		CandidateFrac: candFrac,
		ScanRuns:      runs,
		Bands:         cfg.Bands,
		Rows:          cfg.Rows,
	}
}
