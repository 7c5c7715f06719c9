package codec

import "encoding/binary"

// The cell unpack is the one loop behind every record decode: it spreads a
// record's body of 5-byte cells into 8-byte Cells and checks that their
// numbers strictly ascend. Where the CPU has AVX2 a vector body takes four
// cells per step while at least vectorWindow body bytes remain; the Go
// body takes the rest, and the whole body elsewhere. Both accept the same
// bodies and write the same cells.

// vectorWindow is the window the vector unpack reads per step: 16 bytes at
// offset 0 and 16 at offset 2·CellSize, the two halves of a group of four
// cells, each in one 128-bit lane.
const vectorWindow = 2*CellSize + 16

// groupWindow is the window the Go unpack reads per step: four 8-byte
// little-endian loads at offsets 0, 5, 10 and 15, each keeping its low five
// bytes.
const groupWindow = 3*CellSize + 8

// vector reports whether the unpack runs its vector body.
var vector = HaveVector()

// SetVector turns the vector unpack on or off and returns what it was: the
// test hook that runs every record decoder down both bodies on one machine.
// Off, the decoders run exactly as on a CPU without AVX2.
func SetVector(on bool) bool {
	was := vector
	vector = on && HaveVector()
	return was
}

// unpack decodes len(out) cells from body, which holds exactly that many,
// and reports whether their numbers strictly ascend. The vector body takes
// whole groups while vectorWindow bytes remain, the Go body the rest from
// the last number the vector body wrote.
func unpack(out []Cell, body []byte) bool {
	prev := int32(-1)
	if vector && len(body) >= vectorWindow {
		n := 4 * ((len(body)-vectorWindow)/(4*CellSize) + 1)
		if !unpackVector(out[:n], body) {
			return false
		}
		prev = int32(out[n-1].Number)
		out, body = out[n:], body[n*CellSize:]
	}
	return unpackGo(out, body, prev)
}

// unpackGo is the unpack in Go, continuing after the number prev: four
// cells per step behind one check on a groupWindow-byte window, then one
// cell at a time. Strict ascent is checked without branches: ok keeps the
// sign bit of every prev−n, which is negative exactly when n > prev
// (numbers are below 2²⁴, so the int32 difference cannot overflow), and a
// clear sign bit at the end rejects the body.
func unpackGo(out []Cell, body []byte, prev int32) bool {
	ok := int32(-1)
	i := 0
	for ; len(body) >= groupWindow; body = body[4*CellSize:] {
		w := body[:groupWindow:groupWindow]
		v0 := binary.LittleEndian.Uint64(w[0:])
		v1 := binary.LittleEndian.Uint64(w[CellSize:])
		v2 := binary.LittleEndian.Uint64(w[2*CellSize:])
		v3 := binary.LittleEndian.Uint64(w[3*CellSize:])
		n0, n1, n2, n3 := int32(v0&MaxNumber), int32(v1&MaxNumber), int32(v2&MaxNumber), int32(v3&MaxNumber)
		ok &= (prev - n0) & (n0 - n1) & (n1 - n2) & (n2 - n3)
		prev = n3
		o := out[i : i+4 : i+4]
		o[0] = Cell{Number: uint32(n0), Weight: uint16(v0 >> 24)}
		o[1] = Cell{Number: uint32(n1), Weight: uint16(v1 >> 24)}
		o[2] = Cell{Number: uint32(n2), Weight: uint16(v2 >> 24)}
		o[3] = Cell{Number: uint32(n3), Weight: uint16(v3 >> 24)}
		i += 4
	}
	for ; len(body) >= CellSize; body = body[CellSize:] {
		n := int32(body[0]) | int32(body[1])<<8 | int32(body[2])<<16
		ok &= prev - n
		prev = n
		out[i] = Cell{Number: uint32(n), Weight: uint16(body[3]) | uint16(body[4])<<8}
		i++
	}
	return ok < 0
}
