// Package codec implements the binary layouts of the paper's storage
// structures.
//
// The paper represents each document as a list of d-cells (t#, w) and each
// inverted-file entry as a list of i-cells (d#, w), where t# and d# are
// 3-byte term/document numbers and w is a 2-byte occurrence count, so every
// cell occupies exactly 5 bytes ("|t#| = 3 and |w| = 2 is sufficient").
// B+tree leaf cells occupy 9 bytes: 3 for the term number, 4 for the
// address, and 2 for the document frequency.
//
// All integers are little-endian. Records are packed tightly; the page
// structure is provided by package iosim.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Sizes of the on-disk primitives, in bytes.
const (
	// TermNumberSize is |t#|: the width of a term number (3 bytes as in
	// the paper, supporting up to ~16.7M distinct terms).
	TermNumberSize = 3
	// DocNumberSize is |d#|: the width of a document number.
	DocNumberSize = 3
	// WeightSize is |w|: the width of an occurrence count.
	WeightSize = 2
	// CellSize is the size of one d-cell or i-cell (5 bytes).
	CellSize = TermNumberSize + WeightSize
	// BTreeCellSize is the size of one B+tree leaf cell: term number,
	// 4-byte address and 2-byte document frequency (9 bytes, as in the
	// paper's B+tree size estimate 9·N/P).
	BTreeCellSize = TermNumberSize + 4 + WeightSize
	// DocHeaderSize is the header preceding a packed document: 3-byte
	// document number + 3-byte cell count.
	DocHeaderSize = DocNumberSize + 3
	// EntryHeaderSize is the header preceding a packed inverted-file
	// entry: 3-byte term number + 3-byte cell count.
	EntryHeaderSize = TermNumberSize + 3
)

// Limits implied by the field widths.
const (
	// MaxNumber is the largest representable term or document number.
	MaxNumber = 1<<24 - 1
	// MaxWeight is the largest representable occurrence count. Larger
	// counts are clamped by the builders, matching practice (a 2-byte
	// occurrence count saturates).
	MaxWeight = 1<<16 - 1
)

// Errors returned by decoding functions.
var (
	ErrShortBuffer = errors.New("codec: short buffer")
	ErrRange       = errors.New("codec: value out of range")
	ErrCorrupt     = errors.New("codec: corrupt record")
)

// PutUint24 encodes v into b[0:3] little-endian. It panics if v does not
// fit, mirroring encoding/binary's behavior on short buffers.
func PutUint24(b []byte, v uint32) {
	if v > MaxNumber {
		panic(fmt.Sprintf("codec: uint24 overflow: %d", v))
	}
	_ = b[2]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
}

// Uint24 decodes a little-endian 3-byte integer from b[0:3].
func Uint24(b []byte) uint32 {
	_ = b[2]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
}

// PutUint16 encodes v into b[0:2] little-endian.
func PutUint16(b []byte, v uint16) {
	_ = b[1]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

// Uint16 decodes a little-endian 2-byte integer from b[0:2].
func Uint16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0]) | uint16(b[1])<<8
}

// PutUint32 encodes v into b[0:4] little-endian.
func PutUint32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Uint32 decodes a little-endian 4-byte integer from b[0:4].
func Uint32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Cell is a (number, weight) pair: a d-cell when number is a term number,
// an i-cell when number is a document number.
type Cell struct {
	Number uint32
	Weight uint16
}

// DecodeCell decodes one cell from the start of b.
func DecodeCell(b []byte) (Cell, error) {
	if len(b) < CellSize {
		return Cell{}, fmt.Errorf("%w: need %d bytes for cell, have %d", ErrShortBuffer, CellSize, len(b))
	}
	return Cell{Number: Uint24(b), Weight: Uint16(b[TermNumberSize:])}, nil
}

// Record layouts.
//
// A packed document is
//
//	docNumber  uint24
//	cellCount  uint24
//	cells      cellCount × Cell   (d-cells sorted by ascending term number)
//
// A packed inverted-file entry is
//
//	termNumber uint24
//	cellCount  uint24
//	cells      cellCount × Cell   (i-cells sorted by ascending doc number)
//
// Both share the same shape, captured by Record.
type Record struct {
	// Number is the document number of a packed document, or the term
	// number of a packed inverted-file entry.
	Number uint32
	// Cells are the record's cells in ascending Number order.
	Cells []Cell
}

// EncodedRecordSize returns the packed size in bytes of a record with n
// cells.
func EncodedRecordSize(n int) int64 {
	return DocHeaderSize + int64(n)*CellSize
}

// AppendRecord appends the packed encoding of r to dst. Cells must be
// sorted by strictly ascending Number; this is validated because both the
// similarity merge and the VVM scan rely on it. dst grows once, by the
// record's packed size; on an error it holds the header and the cells
// before the offending one.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.Number > MaxNumber {
		return dst, fmt.Errorf("%w: record number %d", ErrRange, r.Number)
	}
	if len(r.Cells) > MaxNumber {
		return dst, fmt.Errorf("%w: %d cells", ErrRange, len(r.Cells))
	}
	n, size := len(dst), int(EncodedRecordSize(len(r.Cells)))
	dst = slices.Grow(dst, size)[:n+size]
	PutUint24(dst[n:], r.Number)
	PutUint24(dst[n+DocNumberSize:], uint32(len(r.Cells)))
	body := dst[n+DocHeaderSize:]
	prev := int64(-1)
	for i, c := range r.Cells {
		if int64(c.Number) <= prev || c.Number > MaxNumber {
			dst = dst[:n+DocHeaderSize+i*CellSize]
			if c.Number > MaxNumber {
				return dst, fmt.Errorf("%w: cell number %d", ErrRange, c.Number)
			}
			return dst, fmt.Errorf("%w: cells not strictly ascending (%d after %d)", ErrCorrupt, c.Number, prev)
		}
		prev = int64(c.Number)
		w := body[i*CellSize : i*CellSize+CellSize : i*CellSize+CellSize]
		w[0] = byte(c.Number)
		w[1] = byte(c.Number >> 8)
		w[2] = byte(c.Number >> 16)
		w[3] = byte(c.Weight)
		w[4] = byte(c.Weight >> 8)
	}
	return dst, nil
}

// DecodeRecord decodes one packed record from the start of b and returns it
// together with the number of bytes consumed.
func DecodeRecord(b []byte) (Record, int64, error) {
	number, cells, size, err := DecodeRecordInto(b, nil)
	if err != nil {
		return Record{}, 0, err
	}
	return Record{Number: number, Cells: cells}, size, nil
}

// GroupWindow is the window the four-wide cell unpack reads per step: four
// 8-byte little-endian loads at offsets 0, 5, 10 and 15, each keeping its
// low five bytes. A record body of n cells runs its groups while at least
// GroupWindow bytes remain, and finishes one cell at a time.
const GroupWindow = 3*CellSize + 8

// DecodeRecordInto is the batch decode kernel behind DecodeRecord: it
// decodes one packed record from the start of b, appending the cells to
// dst (whose capacity is reused, so a caller recycling its buffer decodes
// without allocating). Bounds are checked once against the full record
// size; the unpack loop then takes four cells per step behind one check
// on a GroupWindow-byte window, and a one-cell tail takes the rest.
// Strict ascent is checked without branches: ok keeps the sign bit of
// every prev−n, which is negative exactly when n > prev (numbers are
// below 2²⁴, so the int32 difference cannot overflow), and a clear sign
// bit at the end rejects the record.
func DecodeRecordInto(b []byte, dst []Cell) (number uint32, cells []Cell, consumed int64, err error) {
	if len(b) < DocHeaderSize {
		return 0, dst, 0, fmt.Errorf("%w: need %d header bytes, have %d", ErrShortBuffer, DocHeaderSize, len(b))
	}
	number = Uint24(b)
	count := int(Uint24(b[DocNumberSize:]))
	size := EncodedRecordSize(count)
	if int64(len(b)) < size {
		return 0, dst, 0, fmt.Errorf("%w: record needs %d bytes, have %d", ErrShortBuffer, size, len(b))
	}
	base := len(dst)
	if cap(dst)-base < count {
		grown := make([]Cell, base, base+count)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+count]
	out := dst[base:]
	body := b[DocHeaderSize:size:size]
	ok, prev := int32(-1), int32(-1)
	i := 0
	for ; len(body) >= GroupWindow; body = body[4*CellSize:] {
		w := body[:GroupWindow:GroupWindow]
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
	if ok >= 0 {
		return 0, dst[:base], 0, fmt.Errorf("%w: cells not strictly ascending", ErrCorrupt)
	}
	return number, dst, size, nil
}

// PeekRecordSize reads only the record header from b and returns the full
// packed size, letting callers fetch exactly the remaining bytes.
func PeekRecordSize(b []byte) (int64, error) {
	if len(b) < DocHeaderSize {
		return 0, fmt.Errorf("%w: need %d header bytes, have %d", ErrShortBuffer, DocHeaderSize, len(b))
	}
	count := int(Uint24(b[DocNumberSize:]))
	return EncodedRecordSize(count), nil
}

// BTreeCell is one leaf cell of the term B+tree: it locates the inverted
// file entry of a term and carries the term's document frequency (the
// paper stores document frequencies in the list heads / B+tree so that no
// extra I/O is needed to obtain them).
type BTreeCell struct {
	Term uint32
	// Addr is the byte offset of the term's inverted-file entry within
	// the inverted file.
	Addr uint32
	// DocFreq is the number of documents containing the term.
	DocFreq uint16
}

// AppendBTreeCell appends the 9-byte encoding of c to dst.
func AppendBTreeCell(dst []byte, c BTreeCell) ([]byte, error) {
	if c.Term > MaxNumber {
		return dst, fmt.Errorf("%w: term %d", ErrRange, c.Term)
	}
	var buf [BTreeCellSize]byte
	PutUint24(buf[:], c.Term)
	PutUint32(buf[TermNumberSize:], c.Addr)
	PutUint16(buf[TermNumberSize+4:], c.DocFreq)
	return append(dst, buf[:]...), nil
}

// DecodeBTreeCell decodes one B+tree leaf cell from the start of b.
func DecodeBTreeCell(b []byte) (BTreeCell, error) {
	if len(b) < BTreeCellSize {
		return BTreeCell{}, fmt.Errorf("%w: need %d bytes for btree cell, have %d", ErrShortBuffer, BTreeCellSize, len(b))
	}
	return BTreeCell{
		Term:    Uint24(b),
		Addr:    Uint32(b[TermNumberSize:]),
		DocFreq: Uint16(b[TermNumberSize+4:]),
	}, nil
}

// ClampWeight saturates an occurrence count to the 2-byte on-disk range.
func ClampWeight(n int) uint16 {
	if n < 0 {
		return 0
	}
	if n > MaxWeight {
		return MaxWeight
	}
	return uint16(n)
}
