package accum

import "textjoin/internal/codec"

// Under raw and cosine weighting a term's factor is 1, so every product a
// block join adds is w·c of two uint16 weights — an integer — and so is
// every sum. The block joins may then add a streamed document's products
// into an int32 twin of their float64 row (AddColumnInt32, AddCellsInt32)
// and write the row from it in one pass (Widen): integer adds, eight per
// vector instruction, in place of a conversion, two multiplications and
// an add per four ids.
//
// The bits cannot move while Exact holds. A row's sum at a slot is
// Σₜ w(t)·c(t) over the terms both documents hold, at most most·total,
// where most is the largest weight of the resident batch and total the
// sum of the streamed document's weights. Below 2³¹ no int32 product or
// sum overflows, and the float path's every product and partial sum is
// an integer below 2⁵³, which float64 holds exactly, so it adds without
// rounding in any order: Widen writes the float path's row bit for bit.

// Exact reports whether a streamed document whose weights sum to total
// may be added through the int32 twin of a row whose resident weights are
// at most most: when the vector kernel is present and most·total < 2³¹.
// total must be below 2⁴⁷, as any document's is.
func Exact(most uint16, total uint64) bool {
	return vector && uint64(most)*total < 1<<31
}

// AddColumnInt32 adds w·col[i] into twin[i] for every i below len(col):
// AddColumn's products at factor 1, exact in int32 while Exact holds.
func AddColumnInt32(twin []int32, col []uint16, w uint16) {
	if len(col) > len(twin) {
		panic("accum: a column longer than its row")
	}
	if vector {
		addColumnInt32Vector(twin, col, w)
		return
	}
	addColumnInt32Go(twin, col, w)
}

// addColumnInt32Go is AddColumnInt32 in Go: the reference the vector
// kernel is held to, and the kernel where there is none.
func addColumnInt32Go(twin []int32, col []uint16, w uint16) {
	twin = twin[:len(col)]
	for i, c := range col {
		twin[i] += int32(w) * int32(c)
	}
}

// AddCellsInt32 adds w·c.Weight into twin[c.Number] for every cell:
// AddCells's products at factor 1, exact in int32 while Exact holds.
func AddCellsInt32(twin []int32, cells []codec.Cell, w uint16) {
	for _, c := range cells {
		twin[c.Number] += int32(w) * int32(c.Weight)
	}
}

// Widen writes float64(twin[i]) into row[i] for every i below len(twin),
// whatever row held there, and clears twin, readying it for the next
// document. row must be at least as long as twin.
func Widen(row []float64, twin []int32) {
	if len(twin) > len(row) {
		panic("accum: a twin longer than its row")
	}
	if vector {
		widenVector(row, twin)
		return
	}
	widenGo(row, twin)
}

// widenGo is Widen in Go: the reference the vector kernel is held to, and
// the kernel where there is none.
func widenGo(row []float64, twin []int32) {
	row = row[:len(twin)]
	for i, v := range twin {
		row[i] = float64(v)
	}
	clear(twin)
}
