package document

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"textjoin/internal/codec"
)

// FuzzDecodeInto holds the document-side decode, which runs the codec
// unpack on d's cells, to a reference assembled from the per-cell
// primitives, with the vector unpack on (where the CPU has one) and off:
// both must accept exactly the same inputs as the reference and yield the
// same number, consumed size and cells, and a rejected record must leave d
// with no cells. prefill dirties d first (cells, and capacity to reuse or
// outgrow) the way a scanner's arena document is dirty from the previous
// record.
func FuzzDecodeInto(f *testing.F) {
	record := func(number uint32, terms ...uint32) []byte {
		b := make([]byte, codec.DocHeaderSize)
		codec.PutUint24(b, number)
		codec.PutUint24(b[codec.DocNumberSize:], uint32(len(terms)))
		for i, t := range terms {
			var cell [codec.CellSize]byte
			codec.PutUint24(cell[:], t)
			codec.PutUint16(cell[codec.TermNumberSize:], uint16(0x0102*(i+1)))
			b = append(b, cell[:]...)
		}
		return b
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(7))
	f.Add(record(4), uint8(3))
	f.Add(record(5, 1, 2, 3, 4), uint8(0))
	f.Add(record(6, 1, 2, 3, 4, 5), uint8(9))
	f.Add(record(6, 1, 2, 3, 4, 5, 6), uint8(9)) // the first body the vector unpack takes
	f.Add(record(7, 1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(2))
	f.Add(record(7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), uint8(30)) // two vector groups, in place
	f.Add(record(8, 1, 2, 3, 3, 5, 6, 7, 8, 9), uint8(4))      // duplicate inside a group
	f.Add(record(9, 1, 2, 3, 4, 2, 6, 7, 8, 9), uint8(4))      // descending across groups
	f.Add(record(9, 1, 2, 3, 4, 4, 6, 7, 8, 9, 10), uint8(4))  // duplicate across the vector carry
	f.Add(record(10, 1, 2, 3, 4, 5, 6, 7, 8, 8), uint8(1))     // duplicate in the tail
	f.Add(record(codec.MaxNumber, 1, 2, 3, 4, codec.MaxNumber), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, prefill uint8) {
		number, want, wantSize, wantErr := referenceDecode(data)
		for _, on := range []bool{true, false} {
			was := codec.SetVector(on)
			d := &Document{ID: 0xABCDEF, Cells: make([]Cell, prefill, int(prefill)+int(prefill)%3)}
			for i := range d.Cells {
				d.Cells[i] = Cell{Term: 0xABC000 + uint32(i), Weight: 0xEE}
			}
			size, err := DecodeInto(d, data)
			codec.SetVector(was)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("vector %v: accept mismatch: DecodeInto err=%v, reference err=%v", on, err, wantErr)
			}
			if err != nil {
				if len(d.Cells) != 0 {
					t.Fatalf("vector %v: rejected record left %d cells", on, len(d.Cells))
				}
				continue
			}
			if d.ID != number || size != wantSize {
				t.Fatalf("vector %v: DecodeInto (%d, %d) vs reference (%d, %d)", on, d.ID, size, number, wantSize)
			}
			if !slices.Equal(d.Cells, want) {
				t.Fatalf("vector %v: DecodeInto cells %v, reference %v", on, d.Cells, want)
			}
		}
	})
}

// referenceDecode decodes a packed record one cell at a time through the
// codec primitives, rejecting what DecodeInto must reject.
func referenceDecode(data []byte) (uint32, []Cell, int64, error) {
	if len(data) < codec.DocHeaderSize {
		return 0, nil, 0, codec.ErrShortBuffer
	}
	count := int(codec.Uint24(data[codec.DocNumberSize:]))
	size := codec.EncodedRecordSize(count)
	if int64(len(data)) < size {
		return 0, nil, 0, codec.ErrShortBuffer
	}
	cells := make([]Cell, count)
	prev := int64(-1)
	for i := range cells {
		c, err := codec.DecodeCell(data[codec.DocHeaderSize+i*codec.CellSize:])
		if err != nil {
			return 0, nil, 0, err
		}
		if int64(c.Number) <= prev {
			return 0, nil, 0, codec.ErrCorrupt
		}
		prev = int64(c.Number)
		cells[i] = Cell{Term: c.Number, Weight: c.Weight}
	}
	return codec.Uint24(data), cells, size, nil
}

// TestCellLayoutMatchesCodec pins the layout DecodeInto's view of a
// document's cells as codec cells relies on: the same size and alignment,
// and fields of the same types at the same offsets.
func TestCellLayoutMatchesCodec(t *testing.T) {
	var d Cell
	var c codec.Cell
	if unsafe.Sizeof(d) != unsafe.Sizeof(c) || unsafe.Alignof(d) != unsafe.Alignof(c) {
		t.Fatalf("Cell is %d bytes aligned to %d, codec.Cell %d aligned to %d",
			unsafe.Sizeof(d), unsafe.Alignof(d), unsafe.Sizeof(c), unsafe.Alignof(c))
	}
	dt, ct := reflect.TypeOf(d), reflect.TypeOf(c)
	if dt.NumField() != ct.NumField() {
		t.Fatalf("Cell has %d fields, codec.Cell %d", dt.NumField(), ct.NumField())
	}
	for i := range dt.NumField() {
		df, cf := dt.Field(i), ct.Field(i)
		if df.Type != cf.Type || df.Offset != cf.Offset {
			t.Errorf("field %d: Cell.%s %v at %d, codec.Cell.%s %v at %d", i, df.Name, df.Type, df.Offset, cf.Name, cf.Type, cf.Offset)
		}
	}
}

// BenchmarkDecodeInto times the document-side decode per cell over the
// record mix BenchmarkDecodeRecordInto in internal/codec times — 256
// seeded records of 1 to 255 cells — decoding into one recycled document.
func BenchmarkDecodeInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var buf []byte
	cells := 0
	for range 256 {
		n := 1 + r.Intn(255)
		rec := make([]codec.Cell, n)
		next := uint32(r.Intn(8))
		for i := range rec {
			rec[i] = codec.Cell{Number: next, Weight: uint16(1 + r.Intn(12))}
			next += 1 + uint32(r.Intn(300))
		}
		buf, _ = codec.AppendRecord(buf, codec.Record{Number: uint32(r.Intn(codec.MaxNumber)), Cells: rec})
		cells += n
	}
	var d Document
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for off := 0; off < len(buf); {
			consumed, err := DecodeInto(&d, buf[off:])
			if err != nil {
				b.Fatal(err)
			}
			off += int(consumed)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// FuzzCosineAdmission holds the cosine admission rule (Limit and Admits,
// and Admit, which applies them) to Finalize and Finalize to the division
// it has always been. Norms span
// ten decades, 10⁻³ to 10⁷, one draw in eight is zero; the bar lies in
// [0, 1]; the raw score lies within 8 ulps of bar·o·nᵢ on either side, or,
// under tie, within 8 ulps of a raw score whose similarity is the bar
// exactly. The rule must never refuse a pair Offer's test would keep
// (Finalize ≥ bar and > 0); Finalize must be raw/(o·nᵢ), 0 for a zero
// norm, and Admit Finalize's value or, for a refused pair, 0, to the last
// bit.
func FuzzCosineAdmission(f *testing.F) {
	f.Add(uint64(0), uint8(3), uint64(0), uint8(4), uint64(1)<<63, int8(0), false)
	f.Add(uint64(12345), uint8(0), uint64(678910), uint8(9), uint64(1)<<62, int8(-1), true)
	f.Add(uint64(1)<<52, uint8(5), uint64(3)<<50, uint8(2), ^uint64(0), int8(1), true)    // bar 1
	f.Add(uint64(8), uint8(6), uint64(99), uint8(1), uint64(0), int8(8), false)           // bar 0, zero norm
	f.Add(uint64(1)<<40, uint8(4), uint64(1)<<41, uint8(4), uint64(7)<<58, int8(0), true) // an exact tie
	f.Add(uint64(77777), uint8(8), uint64(3), uint8(3), uint64(5)<<59, int8(-8), true)
	f.Fuzz(func(t *testing.T, om uint64, oe uint8, nm uint64, ne uint8, barBits uint64, ulps int8, tie bool) {
		norm := func(m uint64, e uint8) float64 {
			if m%8 == 7 {
				return 0
			}
			return (1 + float64(m>>11)*0x1p-53) * math.Pow(10, float64(int(e%10)-3))
		}
		o, ni := norm(om, oe), norm(nm, ne)
		bar := float64(barBits>>10) / float64(1<<54-1) // [0, 1]
		raw := bar * o * ni
		if tie && o != 0 && ni != 0 {
			// A raw score whose similarity is the bar: the bar is a kept
			// similarity, so make it one.
			bar = Finalize(raw, o, ni)
		}
		for k := ulps % 9; k != 0; {
			if k > 0 {
				raw, k = math.Nextafter(raw, math.Inf(1)), k-1
			} else {
				raw, k = math.Nextafter(raw, 0), k+1
			}
		}
		sim := Finalize(raw, o, ni)
		want := 0.0
		if o != 0 && ni != 0 {
			want = raw / (o * ni)
		}
		if math.Float64bits(sim) != math.Float64bits(want) {
			t.Fatalf("Finalize(%v, %v, %v) = %v, want %v", raw, o, ni, sim, want)
		}
		admitted := Admits(raw, Limit(bar, o), ni)
		if sim >= bar && sim > 0 && !admitted {
			t.Fatalf("raw %v, norms %v and %v: the rule refuses a pair of similarity %v at bar %v", raw, o, ni, sim, bar)
		}
		if !admitted {
			sim = 0
		}
		if got := Admit(raw, bar, o, ni); math.Float64bits(got) != math.Float64bits(sim) {
			t.Fatalf("Admit(%v, %v, %v, %v) = %v, want %v", raw, bar, o, ni, got, sim)
		}
	})
}
