// Package topk tracks the λ largest similarities for one outer document.
//
// Every join algorithm in the paper ends the processing of an outer
// document by identifying the λ documents of the inner collection with the
// largest similarities. HHNL additionally maintains the running set
// incrementally ("keep track of only those documents ... which have the λ
// largest similarities"), replacing the smallest kept similarity whenever a
// larger one arrives. This package implements that structure as a bounded
// min-heap with deterministic tie-breaking so that all three algorithms
// produce byte-identical results.
//
// Only non-zero similarities are candidates: the paper's accumulating
// algorithms store only non-zero intermediate similarities, so a document
// pair sharing no terms can never appear in a result.
package topk

import "slices"

// Match pairs an inner document with its similarity to the outer document.
type Match struct {
	Doc uint32
	Sim float64
}

// Less orders matches best-first: by descending similarity, breaking ties
// by ascending document number. The deterministic tie-break keeps the
// three algorithms' outputs identical.
func Less(a, b Match) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.Doc < b.Doc
}

// compare is Less as a three-way comparison, for slices.SortFunc. Less is
// a total order over matches of distinct documents, so a tracker's sorted
// output is unique.
func compare(a, b Match) int {
	switch {
	case Less(a, b):
		return -1
	case Less(b, a):
		return 1
	}
	return 0
}

// TopK keeps the k best matches seen so far.
//
// The zero value is not usable; create with New. TopK is not safe for
// concurrent use: each outer document owns its own tracker.
type TopK struct {
	k int
	// heap is a min-heap under the best-first order: heap[0] is the
	// *worst* kept match, the one replaced next.
	heap []Match
}

// New creates a tracker keeping the k best matches. k must be positive.
func New(k int) *TopK {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &TopK{k: k, heap: make([]Match, 0, k)}
}

// K returns the tracker's capacity λ.
func (t *TopK) K() int { return t.k }

// Len returns how many matches are currently kept.
func (t *TopK) Len() int { return len(t.heap) }

// worse reports whether heap[i] is worse than heap[j] (ordered before it
// in the min-heap).
func (t *TopK) worse(i, j int) bool { return Less(t.heap[j], t.heap[i]) }

// Threshold returns the similarity a new candidate must exceed to enter a
// full tracker, and whether the tracker is full. HHNL uses it to skip the
// replacement bookkeeping cheaply.
func (t *TopK) Threshold() (float64, bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Sim, true
}

// Offer considers a candidate match and reports whether it was kept.
// Candidates with zero or negative similarity are never kept.
func (t *TopK) Offer(doc uint32, sim float64) bool {
	if sim <= 0 {
		return false
	}
	m := Match{Doc: doc, Sim: sim}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, m)
		t.up(len(t.heap) - 1)
		return true
	}
	// Full: replace the worst kept match if the candidate beats it.
	if !Less(m, t.heap[0]) {
		return false
	}
	t.heap[0] = m
	t.down(0)
	return true
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.worse(l, worst) {
			worst = l
		}
		if r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Results returns the kept matches ordered best-first. The tracker remains
// usable afterwards. The returned slice is the call's only allocation.
func (t *TopK) Results() []Match {
	out := make([]Match, len(t.heap))
	copy(out, t.heap)
	slices.SortFunc(out, compare)
	return out
}

// Reset empties the tracker for reuse on the next outer document.
func (t *TopK) Reset() { t.heap = t.heap[:0] }

// Select returns the k best matches of a full candidate slice, best-first,
// using the same candidate rules as TopK (non-positive similarities are
// dropped). It is the reference implementation used by tests and by the
// accumulate-then-select algorithms (HVNL, VVM).
func Select(k int, candidates []Match) []Match {
	t := New(k)
	for _, m := range candidates {
		t.Offer(m.Doc, m.Sim)
	}
	return t.Results()
}
