package accum

import "math"

// A dense row's block maxima bound it from above, a block at a time: the
// largest value of each run of MaxBlock ids. A drain that wants only a
// row's λ largest values reads them first — one vector pass over the row
// — and then looks only inside the blocks whose maximum can reach its bar
// (core's dense drain, DESIGN §6).

// MaxBlock is the number of ids one block maximum covers.
const MaxBlock = 16

// MaxBlocks returns how many block maxima a row of n ids has: ⌈n/16⌉.
func MaxBlocks(n int) int { return (n + MaxBlock - 1) / MaxBlock }

// BlockMaxima writes into maxes[b] the largest of row[i]·scale[i] over
// block b, ids b·16 to b·16+15 (the last block may be shorter), or of
// row[i] itself when scale is nil, and returns how many of row's values
// are non-zero. maxes must hold MaxBlocks(len(row)) values and a non-nil
// scale at least len(row). Values and scales must be non-negative and not
// NaN, as every sum and reciprocal norm of a join is: then the maximum is
// exact whichever order it is taken in, and the vector kernel's result is
// blockMaximaGo's bit for bit.
func BlockMaxima(maxes, row, scale []float64) (nonzero int) {
	maxes = maxes[:MaxBlocks(len(row))]
	if scale != nil {
		scale = scale[:len(row)]
	}
	if !vector {
		return blockMaximaGo(maxes, row, scale)
	}
	// The vector kernel takes the whole blocks, the Go body the short
	// last one.
	whole := len(row) / MaxBlock
	n := whole * MaxBlock
	var head, tail []float64
	if scale != nil {
		head, tail = scale[:n], scale[n:]
	}
	nonzero = blockMaximaVector(maxes[:whole], row[:n], head)
	return nonzero + blockMaximaGo(maxes[whole:], row[n:], tail)
}

// blockMaximaGo is the block maxima kernel in Go: the reference the
// vector kernel is held to bit for bit, and the kernel where there is
// none. It compares the values' bits, which order non-negative floats as
// their values do, so that each step is a conditional move and an add
// rather than two branches on the data.
func blockMaximaGo(maxes, row, scale []float64) (nonzero int) {
	for b := range maxes {
		lo := b * MaxBlock
		hi := min(lo+MaxBlock, len(row))
		var m uint64
		if scale == nil {
			for _, v := range row[lo:hi] {
				bits := math.Float64bits(v)
				nonzero += int((bits | -bits) >> 63)
				m = max(m, bits)
			}
		} else {
			for i, v := range row[lo:hi] {
				bits := math.Float64bits(v)
				nonzero += int((bits | -bits) >> 63)
				m = max(m, math.Float64bits(v*scale[lo+i]))
			}
		}
		maxes[b] = math.Float64frombits(m)
	}
	return nonzero
}
