package accum

import (
	"slices"

	"textjoin/internal/codec"
)

// A column is the second form of a posting list: one weight per id of an
// accumulator's range, 0 where the posting lacks the id. A posting that
// covers at least a quarter of the range is cheaper to add as a column —
// one contiguous sweep, four products per vector instruction — than as
// its cells, each a scattered add, and it takes no more memory: its 2·n
// bytes are at most the 8·df of the cells it replaces exactly when
// 4·df ≥ n.
//
// Adding a column is bit for bit adding its cells. Each present id gets
// the same two multiplications in the same order as addRow, and an absent
// one gets (w·0)·factor = +0, which leaves any non-negative sum as it was:
// weights and factors are finite and non-negative, the assumption Store
// states.

// vector reports whether this CPU adds a column with the vector kernel
// (codec.HaveVector, the module's one CPU probe). Where it does not,
// Columnar holds no posting as a column and the joins add every posting
// through AddCells.
var vector = codec.HaveVector()

// Columnar reports whether a posting of df ids is held as a column over
// an accumulator of n ids: when the vector kernel is present and
// 4·df ≥ n.
func Columnar(df, n int) bool { return vector && 4*df >= n }

// FillColumn returns cells as a column over ids 0..n-1, in col's array
// when it has room for n. Cell numbers must be distinct and below n.
func FillColumn(col []uint16, cells []codec.Cell, n int) []uint16 {
	col = slices.Grow(col[:0], n)[:n]
	clear(col)
	for _, c := range cells {
		col[c.Number] = c.Weight
	}
	return col
}

// AddColumn accumulates one term's products, as AddCells does, from the
// posting's column (FillColumn) over ids 0..len(col)-1. The posting must
// be Columnar over f's range.
func (f *Flat) AddColumn(col []uint16, w, factor float64) {
	addColumn(f.vals, col, w, factor)
}

// AddColumn accumulates one term's products into a dense store's row, as
// AddCells does, from the posting's column over the store's inner ids.
func (s *Store) AddColumn(col []uint16, row int, w, factor float64) {
	addColumn(s.Row(row), col, w, factor)
}

// addColumn is the column kernel: id i adds (w·col[i])·factor to vals[i]
// for every i below len(col), through the vector kernel where there is
// one.
func addColumn(vals []float64, col []uint16, w, factor float64) {
	if len(col) > len(vals) {
		panic("accum: a column longer than its row")
	}
	if vector {
		addColumnVector(vals, col, w, factor)
		return
	}
	addColumnGo(vals, col, w, factor)
}

// addColumnGo is the column kernel in Go: id i adds (w·col[i])·factor to
// vals[i]. It is the reference the vector kernel is held to bit for bit,
// and the kernel where there is none. The conversion keeps each product
// rounded before its add, as the vector kernel's are: no fused
// multiply-add.
func addColumnGo(vals []float64, col []uint16, w, factor float64) {
	vals = vals[:len(col)]
	for i, c := range col {
		vals[i] += float64((w * float64(c)) * factor)
	}
}

// setVector turns the vector kernel, and with it every column, on or off,
// and returns what it was: the test hook that runs the joins down both
// paths on one machine. Off, the joins run exactly as on a CPU without
// the kernel.
func setVector(on bool) bool {
	was := vector
	vector = on && codec.HaveVector()
	return was
}
