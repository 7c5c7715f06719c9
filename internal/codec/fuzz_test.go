package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeRecord asserts the decoder never panics on arbitrary bytes and
// that anything it accepts re-encodes to the same bytes (decode∘encode
// identity on the accepted language).
func FuzzDecodeRecord(f *testing.F) {
	good, _ := AppendRecord(nil, Record{Number: 3, Cells: []Cell{{1, 2}, {7, 1}}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, consumed, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if consumed <= 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		re, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of accepted record failed: %v", err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:consumed])
		}
	})
}

// FuzzDecodeRecordInto checks the batch cell-decode kernel against a
// reference decoder assembled from the per-cell primitives, with the
// vector unpack on (where the CPU has one) and off: both bodies must
// accept exactly the same inputs as the reference and produce identical
// numbers, cells and consumed counts, including when the kernel appends
// into a dirty, partially filled destination buffer whose spare capacity
// holds stale cells.
func FuzzDecodeRecordInto(f *testing.F) {
	good, _ := AppendRecord(nil, Record{Number: 3, Cells: []Cell{{1, 2}, {7, 1}}})
	f.Add(good, uint8(0))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(7))
	f.Add(append([]byte{9, 0, 0, 2, 0, 0}, bytes.Repeat([]byte{5, 0, 0, 1, 0}, 2)...), uint8(2))
	for i, seed := range decodeSeeds() {
		f.Add(seed, uint8(i%5))
	}
	// Two vector groups decoded in place, after three prefilled cells,
	// over stale cells in the buffer's spare capacity.
	f.Add(rawRecord(7, ascending(10)), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, prefill uint8) {
		// Reference: header reads plus a per-cell DecodeCell loop.
		refRec, refConsumed, refErr := func() (Record, int64, error) {
			if len(data) < DocHeaderSize {
				return Record{}, 0, ErrShortBuffer
			}
			number := Uint24(data)
			count := int(Uint24(data[DocNumberSize:]))
			size := EncodedRecordSize(count)
			if int64(len(data)) < size {
				return Record{}, 0, ErrShortBuffer
			}
			cells := make([]Cell, 0, count)
			off := DocHeaderSize
			prev := int64(-1)
			for i := 0; i < count; i++ {
				c, err := DecodeCell(data[off:])
				if err != nil {
					return Record{}, 0, err
				}
				if int64(c.Number) <= prev {
					return Record{}, 0, ErrCorrupt
				}
				prev = int64(c.Number)
				cells = append(cells, c)
				off += CellSize
			}
			return Record{Number: number, Cells: cells}, size, nil
		}()

		for _, on := range []bool{true, false} {
			was := SetVector(on)
			checkDecodeRecordInto(t, data, prefill, refRec, refConsumed, refErr)
			SetVector(was)
		}
	})
}

// checkDecodeRecordInto runs the kernel on data, appending after prefill
// sentinel cells that must survive untouched into a buffer whose spare
// capacity, four cells per prefilled one, holds stale cells, and holds
// the outcome to the reference's.
func checkDecodeRecordInto(t *testing.T, data []byte, prefill uint8, refRec Record, refConsumed int64, refErr error) {
	t.Helper()
	dst := make([]Cell, 5*int(prefill))
	for i := range dst {
		dst[i] = Cell{Number: 0xABC000 + uint32(i), Weight: 0xEE}
	}
	dst = dst[:prefill]
	number, got, consumed, err := DecodeRecordInto(data, dst)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("vector %v: accept mismatch: kernel err=%v, reference err=%v", vector, err, refErr)
	}
	if err != nil {
		if len(got) != int(prefill) {
			t.Fatalf("vector %v: error path truncated dst to %d, want %d", vector, len(got), prefill)
		}
		return
	}
	if number != refRec.Number || consumed != refConsumed {
		t.Fatalf("vector %v: kernel (%d, %d) vs reference (%d, %d)", vector, number, consumed, refRec.Number, refConsumed)
	}
	if len(got) != int(prefill)+len(refRec.Cells) {
		t.Fatalf("vector %v: kernel yielded %d cells, want %d + %d prefilled", vector, len(got), len(refRec.Cells), prefill)
	}
	for i := 0; i < int(prefill); i++ {
		if got[i] != (Cell{Number: 0xABC000 + uint32(i), Weight: 0xEE}) {
			t.Fatalf("vector %v: prefilled cell %d clobbered: %+v", vector, i, got[i])
		}
	}
	for i, c := range refRec.Cells {
		if got[int(prefill)+i] != c {
			t.Fatalf("vector %v: cell %d: kernel %+v vs reference %+v", vector, i, got[int(prefill)+i], c)
		}
	}
}

// rawRecord packs a record without AppendRecord's ascent check, so a seed
// can hold the cells a decoder must reject.
func rawRecord(number uint32, cells []Cell) []byte {
	b := make([]byte, DocHeaderSize, EncodedRecordSize(len(cells)))
	PutUint24(b, number)
	PutUint24(b[DocNumberSize:], uint32(len(cells)))
	for _, c := range cells {
		var buf [CellSize]byte
		PutUint24(buf[:], c.Number)
		PutUint16(buf[TermNumberSize:], c.Weight)
		b = append(b, buf[:]...)
	}
	return b
}

// ascending returns n strictly ascending cells with weights that use both
// bytes.
func ascending(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Number: uint32(3*i + 1), Weight: uint16(0x0101 * (i + 1))}
	}
	return cells
}

// decodeSeeds are the records the unpack is most likely to get wrong.
// The vector body takes four cells per step while vectorWindow = 26 body
// bytes remain, so with ten cells (50 bytes) it takes cells 0–3 and 4–7
// and the Go tail takes 8 and 9; with nine it takes 0–3 and the Go group
// loop 4–7. A bad pair — once a duplicate, once descending — is placed at
// every position of the ten: inside the first group (lanes 1–3), across
// the carry between the groups (lane 0 of the second), inside the second
// and into the tail; and at every position of the nine. Then records of 0
// to 14 cells, which cover every tail length and both sides of the window
// edges (a body is five bytes a cell: 25 and 30 bytes straddle 26, 45
// and 50 straddle 46). Then records that end at MaxNumber and MaxWeight,
// once after a jump from a small number and once repeated, one whose ten
// cells are the ten numbers up to MaxNumber at MaxWeight, so every byte
// but a number's lowest is 0xff in every vector lane, and one that falls from MaxNumber to 0 inside
// a vector group. At least two cells follow a record's last vector group,
// so MaxNumber reaches a vector lane only in a record that must be
// rejected.
func decodeSeeds() [][]byte {
	var seeds [][]byte
	for n := 0; n <= 14; n++ {
		seeds = append(seeds, rawRecord(uint32(n), ascending(n)))
	}
	for _, n := range []int{9, 10} {
		for at := 0; at < n-1; at++ {
			dup, desc := ascending(n), ascending(n)
			dup[at+1].Number = dup[at].Number
			desc[at+1].Number = desc[at].Number - 1
			seeds = append(seeds, rawRecord(1, dup), rawRecord(2, desc))
		}
	}
	for _, n := range []int{4, 5, 6, 9, 10} {
		top := ascending(n)
		top[n-1] = Cell{Number: MaxNumber, Weight: MaxWeight}
		twice := ascending(n)
		twice[n-2], twice[n-1] = top[n-1], top[n-1]
		seeds = append(seeds, rawRecord(MaxNumber, top), rawRecord(MaxNumber, twice))
	}
	high := make([]Cell, 10)
	for i := range high {
		high[i] = Cell{Number: MaxNumber - 9 + uint32(i), Weight: MaxWeight}
	}
	fall := ascending(6)
	fall[1], fall[2] = Cell{Number: MaxNumber, Weight: MaxWeight}, Cell{Number: 0, Weight: MaxWeight}
	seeds = append(seeds, rawRecord(MaxNumber, high), rawRecord(3, fall))
	return seeds
}

// BenchmarkDecodeRecordInto times the batch decode kernel per cell over a
// buffer of records of 1 to 255 cells, so that groups and every tail
// length are in the mix, decoding into one recycled cell buffer.
func BenchmarkDecodeRecordInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var buf []byte
	cells := 0
	for range 256 {
		n := 1 + r.Intn(255)
		rec := make([]Cell, n)
		next := uint32(r.Intn(8))
		for i := range rec {
			rec[i] = Cell{Number: next, Weight: uint16(1 + r.Intn(12))}
			next += 1 + uint32(r.Intn(300))
		}
		buf, _ = AppendRecord(buf, Record{Number: uint32(r.Intn(MaxNumber)), Cells: rec})
		cells += n
	}
	var dst []Cell
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for off := 0; off < len(buf); {
			_, got, consumed, err := DecodeRecordInto(buf[off:], dst[:0])
			if err != nil {
				b.Fatal(err)
			}
			dst = got
			off += int(consumed)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// FuzzDecodeBTreeCell covers the 9-byte leaf-cell decoder.
func FuzzDecodeBTreeCell(f *testing.F) {
	enc, _ := AppendBTreeCell(nil, BTreeCell{Term: 9, Addr: 100, DocFreq: 3})
	f.Add(enc)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeBTreeCell(data)
		if err != nil {
			return
		}
		re, err := AppendBTreeCell(nil, c)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(re, data[:BTreeCellSize]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}
