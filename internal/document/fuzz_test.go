package document

import (
	"bytes"
	"math"
	"testing"

	"textjoin/internal/codec"
)

// FuzzDecodeInto holds the document-side decode to codec.DecodeRecordInto:
// both must accept exactly the same inputs and yield the same number,
// consumed size and cells, and a rejected record must leave d with no
// cells. prefill dirties d first (cells, and capacity to reuse or outgrow)
// the way a scanner's arena document is dirty from the previous record.
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
	f.Add(record(7, 1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(2))
	f.Add(record(8, 1, 2, 3, 3, 5, 6, 7, 8, 9), uint8(4))  // duplicate inside a group
	f.Add(record(9, 1, 2, 3, 4, 2, 6, 7, 8, 9), uint8(4))  // descending across groups
	f.Add(record(10, 1, 2, 3, 4, 5, 6, 7, 8, 8), uint8(1)) // duplicate in the tail
	f.Add(record(codec.MaxNumber, 1, 2, 3, 4, codec.MaxNumber), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, prefill uint8) {
		number, want, wantSize, wantErr := codec.DecodeRecordInto(data, nil)

		d := &Document{ID: 0xABCDEF, Cells: make([]Cell, prefill, int(prefill)+int(prefill)%3)}
		for i := range d.Cells {
			d.Cells[i] = Cell{Term: 0xABC000 + uint32(i), Weight: 0xEE}
		}
		size, err := DecodeInto(d, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accept mismatch: DecodeInto err=%v, codec err=%v", err, wantErr)
		}
		if err != nil {
			if len(d.Cells) != 0 {
				t.Fatalf("rejected record left %d cells", len(d.Cells))
			}
			return
		}
		if d.ID != number || size != wantSize {
			t.Fatalf("DecodeInto (%d, %d) vs codec (%d, %d)", d.ID, size, number, wantSize)
		}
		if len(d.Cells) != len(want) {
			t.Fatalf("DecodeInto yielded %d cells, codec %d", len(d.Cells), len(want))
		}
		for i, c := range want {
			if d.Cells[i] != (Cell{Term: c.Number, Weight: c.Weight}) {
				t.Fatalf("cell %d: DecodeInto %+v vs codec %+v", i, d.Cells[i], c)
			}
		}
	})
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
