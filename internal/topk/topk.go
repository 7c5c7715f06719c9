// Package topk tracks the λ largest similarities per outer document.
//
// Every join algorithm in the paper ends the processing of an outer
// document by identifying the λ documents of the inner collection with the
// largest similarities. HHNL additionally maintains the running set
// incrementally ("keep track of only those documents ... which have the λ
// largest similarities"), replacing the smallest kept similarity whenever a
// larger one arrives. This package implements that structure as a sorted
// array of λ with a bar: the kept matches are held best-first, and once the
// array is full a candidate below the worst kept similarity is rejected by
// one comparison, so a join pays a call only for a candidate that can
// enter. Ties break by document number, so all three algorithms produce
// byte-identical results.
//
// A TopK is one tracker, for a join that finishes one outer document at a
// time. A Block is n trackers in one slab, for a join that keeps a row per
// resident document: their kept matches in one array, which the rows'
// results alias, and their bars in one vector, which a drain tests in
// place. Both insert through one routine, so a Block's slot keeps exactly
// what a TopK would, and both lay a slot out the same way: a region of λ
// matches that holds, while the slot is live, its similarities apart
// from its documents, so the insert walks the similarities alone (split).
// A Block's Flush rewrites every region as Matches in place, through a
// scratch of the Block's, so the rows it hands out still alias the slab;
// a TopK's Results copies its slot out and leaves it as it is.
//
// A tracker keeps the same matches whatever order its candidates arrive
// in, but the joins offer by rising document wherever they can, and the
// tie walk is cheapest then: the block joins (HHNL, prefiltered HHNL,
// LSH) stream their inner collection in ascending id, and the dense drain
// (HVNL's rows, VVM's dense passes) reads a row in id order. VVM's table
// drain offers in the order of its table's slots, which is not the
// documents'.
//
// Only non-zero similarities are candidates: the paper's accumulating
// algorithms store only non-zero intermediate similarities, so a document
// pair sharing no terms can never appear in a result.
package topk

import "unsafe"

// Match pairs an inner document with its similarity to the outer document.
type Match struct {
	Doc uint32
	Sim float64
}

// Less orders matches best-first: by descending similarity, breaking ties
// by ascending document number. The deterministic tie-break keeps the
// three algorithms' outputs identical: Less is a total order over matches
// of distinct documents, so a tracker's kept set is unique.
func Less(a, b Match) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.Doc < b.Doc
}

// A slot is a region of λ matches, 16·λ bytes, but a tracker does not
// hold its matches there as Matches. It keeps the region split: its λ
// similarities in the first 8·λ bytes, their documents in the next 4·λ,
// best-first in both, so an insert walks a dense array of similarities
// and moves 12 bytes a step instead of 16. Match holds no pointer, so the
// region may be viewed as either. A Block's Flush rewrites each of its
// slots as Matches in place (unpack), which is what a join's rows read;
// TopK's Results copies its slot out instead.

// split views a slot's region as its similarities and its documents.
func split(region []Match) (sims []float64, docs []uint32) {
	k := len(region)
	p := unsafe.Pointer(unsafe.SliceData(region))
	return unsafe.Slice((*float64)(p), k), unsafe.Slice((*uint32)(unsafe.Add(p, 8*k)), k)
}

// unpack rewrites the first n matches of a split region as Matches in
// place, best-first, and returns scratch, which holds the documents while
// the similarities are rewritten. It goes from the worst end: Match i
// covers similarities 2i and 2i+1, which lie at or past i and so are
// read before they are overwritten.
func unpack(region []Match, n int, scratch []uint32) []uint32 {
	sims, docs := split(region)
	scratch = append(scratch[:0], docs[:n]...)
	for i := n - 1; i >= 0; i-- {
		region[i] = Match{Doc: scratch[i], Sim: sims[i]}
	}
	return scratch
}

// insert places (doc, sim), which cleared the bar, among the n matches
// kept best-first at the front of a split slot of capacity len(sims),
// and returns the new count, or -1 when it is not kept. It walks up from
// the worst end, so a candidate that only just clears the bar lands near
// it: first past every kept match of lower similarity, one compare per
// step, then past the equal ones of higher document number — the place
// Less gives. The tie walk tests the document first: when candidates
// arrive by rising document, as the block joins and the dense drain offer
// them, no kept match has a higher one, so the walk ends on its first
// test, whatever the similarities, and that branch always goes the same
// way. The two tests commute, so the place is the same in any arrival
// order. A full slot drops its worst match, or the candidate itself when
// it ties the bar by a higher document number.
func insert(sims []float64, docs []uint32, n int, doc uint32, sim float64) int {
	docs = docs[:len(sims)]
	i := n
	if n == len(sims) {
		i--
		if !Less(Match{Doc: doc, Sim: sim}, Match{Doc: docs[i], Sim: sims[i]}) {
			return -1
		}
	} else {
		n++
	}
	for ; i > 0 && sims[i-1] < sim; i-- {
		sims[i], docs[i] = sims[i-1], docs[i-1]
	}
	for ; i > 0 && docs[i-1] > doc && sims[i-1] == sim; i-- {
		sims[i], docs[i] = sims[i-1], docs[i-1]
	}
	sims[i], docs[i] = sim, doc
	return n
}

// TopK keeps the k best matches seen so far.
//
// The zero value is not usable; create with New. TopK is not safe for
// concurrent use: a join reuses its tracker from one outer document to the
// next.
type TopK struct {
	// slot is the tracker's split region (split): its capacity is k, its
	// length the count kept, and its elements are not Matches.
	slot []Match
	// bar is the worst kept similarity once the slot is full, 0 before: a
	// candidate below it cannot enter. A candidate equal to it still may,
	// by a lower document number.
	bar float64
}

// New creates a tracker keeping the k best matches. k must be positive.
func New(k int) *TopK {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &TopK{slot: make([]Match, 0, k)}
}

// K returns the tracker's capacity λ.
func (t *TopK) K() int { return cap(t.slot) }

// Len returns how many matches are currently kept.
func (t *TopK) Len() int { return len(t.slot) }

// Bar returns the similarity a candidate must reach to be considered: 0
// until the tracker is full, then its worst kept similarity. It changes
// only when an Offer keeps its candidate, so a drain over one tracker may
// hold it in a local and test sim >= bar && sim > 0, Offer's own test,
// before calling Offer.
func (t *TopK) Bar() float64 { return t.bar }

// Offer considers a candidate match and reports whether it was kept.
// Candidates with zero or negative similarity are never kept.
func (t *TopK) Offer(doc uint32, sim float64) bool {
	if sim >= t.bar && sim > 0 {
		return t.insert(doc, sim)
	}
	return false
}

func (t *TopK) insert(doc uint32, sim float64) bool {
	sims, docs := split(t.slot[:cap(t.slot)])
	n := insert(sims, docs, len(t.slot), doc, sim)
	if n < 0 {
		return false
	}
	t.slot = t.slot[:n]
	if n == len(sims) {
		t.bar = sims[n-1]
	}
	return true
}

// Results returns the kept matches ordered best-first. It reads the slot
// without rewriting it, so the tracker remains usable afterwards. The
// returned slice is the call's only allocation.
func (t *TopK) Results() []Match {
	sims, docs := split(t.slot[:cap(t.slot)])
	out := make([]Match, len(t.slot))
	for i := range out {
		out[i] = Match{Doc: docs[i], Sim: sims[i]}
	}
	return out
}

// Reset empties the tracker for reuse on the next outer document.
func (t *TopK) Reset() { t.slot, t.bar = t.slot[:0], 0 }

// Block is n trackers of k over one slab: slot s's region is
// slab[s·k:(s+1)·k], kept split as TopK's is, its count in lens[s] and
// its bar in bars[s]. A drain that offers a row to many slots tests the
// bar vector in place and calls into the slab only for a candidate that
// can enter. The slab is the caller's, so the rows cut from it can
// outlive the block's round, while the count and bar vectors and Flush's
// scratch are the block's, so a block kept from round to round lends them
// to every round.
//
// The zero value is an empty block; Reset readies its slots. A Block is
// not safe for concurrent use.
type Block struct {
	k       int
	n       int   // slots in use, at most len(bars)
	flushed int   // slots 0..flushed-1 hold Matches: Flush has unpacked them
	entries int64 // matches kept by an Offer since Reset
	slab    []Match
	lens    []int32
	bars    []float64
	scratch []uint32 // unpack's documents, k of them
}

// Reset readies slots 0..n-1, empty, each keeping the k best matches in
// slab, and returns the slab: slab itself when it holds n·k matches, else
// a new one. It keeps the count and bar vectors unless n outgrows them,
// and Flush's scratch unless k does, so a block reset to no more slots
// than before, over a slab that holds them, allocates nothing. k must be
// positive.
func (b *Block) Reset(n, k int, slab []Match) []Match {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	if n > len(b.bars) {
		b.lens = make([]int32, n)
		b.bars = make([]float64, n)
	}
	if len(slab) < n*k {
		slab = make([]Match, n*k)
	}
	b.k, b.n, b.flushed, b.entries, b.slab = k, n, 0, 0, slab
	clear(b.lens[:n])
	clear(b.bars[:n])
	return slab
}

// Drop lets go of the slab, so that a block kept past its round does not
// keep the rows cut from it alive. Only Reset may follow.
func (b *Block) Drop() { b.k, b.n, b.flushed, b.slab = 0, 0, 0, nil }

// Entries returns how many matches the slots' Offers have kept since
// Reset, one per insert, whether or not a later one displaced it: the
// tracker's work, which a drain that offers fewer candidates lowers.
func (b *Block) Entries() int64 { return b.entries }

// Bars returns the bar of every slot in use, indexed by slot: what TopK.Bar
// is for one tracker. A caller may read it, in place, to skip an Offer
// that could not keep its candidate; it must not write it.
func (b *Block) Bars() []float64 { return b.bars[:b.n] }

// Offer considers a candidate match for slot and reports whether it was
// kept, exactly as TopK.Offer does. No slot may be offered a candidate
// after a Flush until the next Reset.
func (b *Block) Offer(slot int, doc uint32, sim float64) bool {
	if sim >= b.bars[slot] && sim > 0 {
		return b.insert(slot, doc, sim)
	}
	return false
}

func (b *Block) insert(slot int, doc uint32, sim float64) bool {
	sims, docs := split(b.slab[slot*b.k : (slot+1)*b.k])
	n := insert(sims, docs, int(b.lens[slot]), doc, sim)
	if n < 0 {
		return false
	}
	b.lens[slot] = int32(n)
	b.entries++
	if n == b.k {
		b.bars[slot] = sims[n-1]
	}
	return true
}

// Flush hands the kept matches of slots 0..n-1 to emit in slot order,
// best-first, each a slice of the slab with its capacity cut to its length
// (non-nil, an empty one included). It first rewrites each slot's region
// as Matches in place, once: a second Flush finds them rewritten and
// hands out the same rows. No match is copied out of the slab: the rows
// alias it, so they hold their matches until the slab's owner hands it
// to another round.
func (b *Block) Flush(n int, emit func(slot int, kept []Match)) {
	for slot := b.flushed; slot < n; slot++ {
		b.scratch = unpack(b.slab[slot*b.k:(slot+1)*b.k], int(b.lens[slot]), b.scratch)
	}
	b.flushed = max(b.flushed, n)
	for slot, l := range b.lens[:n] {
		lo, hi := slot*b.k, slot*b.k+int(l)
		emit(slot, b.slab[lo:hi:hi])
	}
}

// Select returns the k best matches of a full candidate slice, best-first,
// using the same candidate rules as TopK (non-positive similarities are
// dropped). It is the reference the tests hold the joins to.
func Select(k int, candidates []Match) []Match {
	t := New(k)
	for _, m := range candidates {
		t.Offer(m.Doc, m.Sim)
	}
	return t.Results()
}
