package accum

import "slices"

// A block join finishes a row by offering each slot's sum to the slot's
// tracker, and only a sum above the slot's bar can enter. Above lists
// those slots in one vector pass — one compare and one mask per four
// slots — so that the offer loop runs over the few candidates rather than
// testing every slot on a branch the data decides (core's block stage,
// DESIGN §6).

// Above returns the slots i of row, ascending, whose value strictly
// exceeds bars[i], in dst's array when it has room for len(row) slots.
// A nil bars stands for bars of 0: then, for a row of non-negative sums,
// Above lists its non-zero slots. A non-nil bars must hold at least
// len(row) values. A NaN exceeds no bar, and no bar is exceeded by one.
func Above(dst []int32, row, bars []float64) []int32 {
	dst = slices.Grow(dst[:0], len(row))[:len(row)]
	if bars != nil {
		bars = bars[:len(row)]
	}
	if !vector {
		return dst[:aboveGo(dst, row, bars, 0)]
	}
	// The vector kernel takes the whole groups of four, the Go body the
	// rest.
	whole := len(row) &^ 3
	var head, tail []float64
	if bars != nil {
		head, tail = bars[:whole], bars[whole:]
	}
	n := aboveVector(dst, row[:whole], head)
	return dst[:n+aboveGo(dst[n:], row[whole:], tail, whole)]
}

// aboveGo is the candidate kernel in Go: the reference the vector kernel
// is held to, and the kernel where there is none. It writes first+i into
// dst for every slot i of row above its bar (0 when bars is nil) and
// returns how many it wrote; dst must have room for len(row). Each slot is
// written and then kept by advancing the count, so no branch depends on
// the data.
func aboveGo(dst []int32, row, bars []float64, first int) int {
	dst = dst[:len(row)]
	n := 0
	for i, v := range row {
		bar := 0.0
		if bars != nil {
			bar = bars[i]
		}
		dst[n] = int32(first + i)
		if v > bar {
			n++
		}
	}
	return n
}
