//go:build !amd64

package accum

// addColumnVector is never called here: vector is always false.
func addColumnVector(vals []float64, col []uint16, w, factor float64) {
	addColumnGo(vals, col, w, factor)
}

// blockMaximaVector is never called here: vector is always false.
func blockMaximaVector(maxes, row, scale []float64) int {
	return blockMaximaGo(maxes, row, scale)
}

// aboveVector is never called here: vector is always false.
func aboveVector(dst []int32, row, bars []float64) int {
	return aboveGo(dst, row, bars, 0)
}

// addColumnInt32Vector is never called here: vector is always false.
func addColumnInt32Vector(twin []int32, col []uint16, w uint16) {
	addColumnInt32Go(twin, col, w)
}

// widenVector is never called here: vector is always false.
func widenVector(row []float64, twin []int32) {
	widenGo(row, twin)
}
