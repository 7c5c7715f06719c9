package document

import (
	"bytes"
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
