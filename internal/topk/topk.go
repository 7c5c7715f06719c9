// Package topk tracks the λ largest similarities for one outer document.
//
// Every join algorithm in the paper ends the processing of an outer
// document by identifying the λ documents of the inner collection with the
// largest similarities. HHNL additionally maintains the running set
// incrementally ("keep track of only those documents ... which have the λ
// largest similarities"), replacing the smallest kept similarity whenever a
// larger one arrives. This package implements that structure as a sorted
// array of λ with an inline bar: the kept matches are held best-first, and
// once the array is full a candidate below the worst kept similarity is
// rejected by one comparison that inlines into every caller, so a join
// pays a call only for a candidate that can enter. Ties break by document
// number, so all three algorithms produce byte-identical results.
//
// Only non-zero similarities are candidates: the paper's accumulating
// algorithms store only non-zero intermediate similarities, so a document
// pair sharing no terms can never appear in a result.
package topk

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

// TopK keeps the k best matches seen so far.
//
// The zero value is not usable; create with New. TopK is not safe for
// concurrent use: each outer document owns its own tracker.
type TopK struct {
	// kept holds the matches best-first; its capacity is k.
	kept []Match
	// bar is the worst kept similarity once kept is full, 0 before: a
	// candidate below it cannot enter. A candidate equal to it still may,
	// by a lower document number.
	bar float64
}

// New creates a tracker keeping the k best matches. k must be positive.
func New(k int) *TopK {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &TopK{kept: make([]Match, 0, k)}
}

// K returns the tracker's capacity λ.
func (t *TopK) K() int { return cap(t.kept) }

// Len returns how many matches are currently kept.
func (t *TopK) Len() int { return len(t.kept) }

// Offer considers a candidate match and reports whether it was kept.
// Candidates with zero or negative similarity are never kept.
func (t *TopK) Offer(doc uint32, sim float64) bool {
	if sim < t.bar || sim <= 0 {
		return false
	}
	return t.insert(Match{Doc: doc, Sim: sim})
}

// insert places a candidate that cleared the bar, walking up from the
// worst end, so one that only just clears it lands near it; it shifts
// every kept match it beats, at most λ. A full tracker drops its worst
// match — or the candidate, when it ties the bar by a higher document
// number.
func (t *TopK) insert(m Match) bool {
	kept := t.kept
	i := len(kept)
	if i == cap(kept) {
		i--
		if !Less(m, kept[i]) {
			return false
		}
	} else {
		kept = kept[:i+1]
	}
	for ; i > 0 && Less(m, kept[i-1]); i-- {
		kept[i] = kept[i-1]
	}
	kept[i] = m
	t.kept = kept
	if len(kept) == cap(kept) {
		t.bar = kept[len(kept)-1].Sim
	}
	return true
}

// Results returns the kept matches ordered best-first. The tracker remains
// usable afterwards. The returned slice is the call's only allocation.
func (t *TopK) Results() []Match {
	out := make([]Match, len(t.kept))
	copy(out, t.kept)
	return out
}

// Reset empties the tracker for reuse on the next outer document.
func (t *TopK) Reset() { t.kept, t.bar = t.kept[:0], 0 }

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
