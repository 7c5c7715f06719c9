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
// reference decoder assembled from the per-cell primitives: both must
// accept exactly the same inputs and produce identical numbers, cells and
// consumed counts, including when the kernel appends into a dirty,
// partially filled destination buffer.
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

		// Kernel, appending after `prefill` sentinel cells that must
		// survive untouched.
		dst := make([]Cell, 0, int(prefill)+4)
		for i := 0; i < int(prefill); i++ {
			dst = append(dst, Cell{Number: 0xABC000 + uint32(i), Weight: 0xEE})
		}
		number, got, consumed, err := DecodeRecordInto(data, dst)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("accept mismatch: kernel err=%v, reference err=%v", err, refErr)
		}
		if err != nil {
			if len(got) != int(prefill) {
				t.Fatalf("error path truncated dst to %d, want %d", len(got), prefill)
			}
			return
		}
		if number != refRec.Number || consumed != refConsumed {
			t.Fatalf("kernel (%d, %d) vs reference (%d, %d)", number, consumed, refRec.Number, refConsumed)
		}
		if len(got) != int(prefill)+len(refRec.Cells) {
			t.Fatalf("kernel yielded %d cells, want %d + %d prefilled", len(got), len(refRec.Cells), prefill)
		}
		for i := 0; i < int(prefill); i++ {
			if got[i] != (Cell{Number: 0xABC000 + uint32(i), Weight: 0xEE}) {
				t.Fatalf("prefilled cell %d clobbered: %+v", i, got[i])
			}
		}
		for i, c := range refRec.Cells {
			if got[int(prefill)+i] != c {
				t.Fatalf("cell %d: kernel %+v vs reference %+v", i, got[int(prefill)+i], c)
			}
		}
	})
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

// decodeSeeds are the records the four-wide decode is most likely to get
// wrong. With nine cells the groups take cells 0–3 and 4–7 and the tail
// takes cell 8, so a bad pair is placed at the first position (0,1),
// inside a group (1,2), across the group boundary (3,4) and in the tail
// (7,8), once as a duplicate and once descending. Then records of 0 to 9
// cells, to cover every tail length, and records that reach MaxNumber
// and MaxWeight in a group and in the tail.
func decodeSeeds() [][]byte {
	var seeds [][]byte
	for n := 0; n <= 9; n++ {
		seeds = append(seeds, rawRecord(uint32(n), ascending(n)))
	}
	for _, at := range []int{0, 1, 3, 7} {
		dup, desc := ascending(9), ascending(9)
		dup[at+1].Number = dup[at].Number
		desc[at+1].Number = desc[at].Number - 1
		seeds = append(seeds, rawRecord(1, dup), rawRecord(2, desc))
	}
	for _, n := range []int{5, 9} {
		top := ascending(n)
		top[n-1] = Cell{Number: MaxNumber, Weight: MaxWeight}
		twice := ascending(n)
		twice[n-2], twice[n-1] = top[n-1], top[n-1]
		seeds = append(seeds, rawRecord(MaxNumber, top), rawRecord(MaxNumber, twice))
	}
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
