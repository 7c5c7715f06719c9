//go:build !amd64

package codec

// HaveVector reports that this platform has no vector kernels.
func HaveVector() bool { return false }

// unpackVector is never called here: vector is always false.
func unpackVector(out []Cell, body []byte) bool {
	return unpackGo(out, body[:len(out)*CellSize], -1)
}
