package accum

import (
	"math/bits"
	"slices"
)

// IDSet answers membership and rank queries over a sorted, duplicate-free
// id slice — one VVM pass's outer range. The joins probe it once per
// outer i-cell on the merge-scan hot path, so the common cases are O(1):
//
//   - a full-collection pass is a contiguous run lo..hi, answered by a
//     range check and a subtraction;
//   - a selection (Subset) pass uses an offset bitmap with per-word rank
//     prefixes when its id span is modest;
//   - a pathologically scattered selection falls back to binary search.
//
// The set does not retain the slice; it must stay unmodified only during
// construction. IDSet is immutable between two Resets and safe for
// concurrent readers.
type IDSet struct {
	n    int
	lo   uint32
	hi   uint32
	mode idMode
	// bitmap mode: bit (id - lo) set iff id is a member; ranks[w] is the
	// number of members before word w.
	words []uint64
	ranks []int32
	// search mode: binary search over a copy of the ids.
	ids []uint32
}

// idMode is how an IDSet answers Rank.
type idMode uint8

const (
	contiguous idMode = iota // rank = id - lo
	bitmap
	search
)

// bitmapMaxSpanFactor bounds the bitmap's size at 8 bytes per member
// (64 span bits), past which binary search is the better trade.
const bitmapMaxSpanFactor = 64

// Reset builds the set over ids, which must be sorted ascending with no
// duplicates (as Subset.IDs and the full-collection ranges guarantee), in
// the arrays of the set it held: a set rebuilt over ids no more scattered
// than before allocates nothing. The zero IDSet is empty.
func (s *IDSet) Reset(ids []uint32) {
	s.n, s.mode = len(ids), contiguous
	if len(ids) == 0 {
		return
	}
	s.lo, s.hi = ids[0], ids[len(ids)-1]
	span := uint64(s.hi-s.lo) + 1
	switch {
	case span == uint64(len(ids)):
	case span <= uint64(len(ids))*bitmapMaxSpanFactor:
		s.mode = bitmap
		nw := int((span + 63) / 64)
		s.words = slices.Grow(s.words[:0], nw)[:nw]
		clear(s.words)
		for _, id := range ids {
			off := id - s.lo
			s.words[off/64] |= 1 << (off % 64)
		}
		s.ranks = slices.Grow(s.ranks[:0], nw)[:nw]
		var rank int32
		for w, word := range s.words {
			s.ranks[w] = rank
			rank += int32(bits.OnesCount64(word))
		}
	default:
		s.mode = search
		s.ids = append(s.ids[:0], ids...)
	}
}

// Len returns the number of members.
func (s *IDSet) Len() int { return s.n }

// Rank returns id's position within the sorted member list, and whether id
// is a member.
func (s *IDSet) Rank(id uint32) (int, bool) {
	if s.n == 0 || id < s.lo || id > s.hi {
		return 0, false
	}
	switch s.mode {
	case contiguous:
		return int(id - s.lo), true
	case bitmap:
		off := id - s.lo
		w, b := off/64, off%64
		if s.words[w]&(1<<b) == 0 {
			return 0, false
		}
		return int(s.ranks[w]) + bits.OnesCount64(s.words[w]&(1<<b-1)), true
	}
	i, ok := slices.BinarySearch(s.ids, id)
	return i, ok
}

// Contains reports membership.
func (s *IDSet) Contains(id uint32) bool {
	_, ok := s.Rank(id)
	return ok
}
