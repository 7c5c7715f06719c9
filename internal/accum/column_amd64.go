package accum

// addColumnVector is the AVX2 column kernel: it adds (w·col[i])·factor to
// vals[i] for every i below len(col), eight per step, then four, then
// one at a time, with separate multiplies and adds: no fused
// multiply-add, so every sum is addColumnGo's bit for bit. vals must be
// at least as long as col.
//
//go:noescape
func addColumnVector(vals []float64, col []uint16, w, factor float64)

// blockMaximaVector is the AVX2 block maxima kernel: for each whole block
// of 16 ids it stores the largest of row[i]·scale[i] (row[i] when scale
// is empty) in maxes, and it returns how many of row's values are
// non-zero. len(row) must be 16·len(maxes), and a non-empty scale as long
// as row.
//
//go:noescape
func blockMaximaVector(maxes, row, scale []float64) (nonzero int)

// aboveVector is the AVX2 candidate kernel: it writes into dst the index
// of every value of row that exceeds its bar (0 when bars is empty), four
// values per step, and returns how many it wrote. len(row) must be a
// multiple of 4, a non-empty bars as long as row, and dst at least as
// long as row.
//
//go:noescape
func aboveVector(dst []int32, row, bars []float64) (n int)

// addColumnInt32Vector is the AVX2 int32 column kernel: it adds
// w·col[i] into twin[i] for every i below len(col), sixteen per step,
// then eight, then one at a time. twin must be at least as long as col.
//
//go:noescape
func addColumnInt32Vector(twin []int32, col []uint16, w uint16)

// widenVector is the AVX2 widen kernel: it writes float64(twin[i]) into
// row[i] and clears twin[i] for every i below len(twin), eight per step,
// then one at a time. row must be at least as long as twin.
//
//go:noescape
func widenVector(row []float64, twin []int32)
