package codec

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestUintRoundTrips(t *testing.T) {
	var b [4]byte
	for _, v := range []uint32{0, 1, 255, 256, 65535, 65536, MaxNumber} {
		PutUint24(b[:], v)
		if got := Uint24(b[:]); got != v {
			t.Errorf("Uint24 round trip %d -> %d", v, got)
		}
	}
	for _, v := range []uint16{0, 1, 255, 256, 65535} {
		PutUint16(b[:], v)
		if got := Uint16(b[:]); got != v {
			t.Errorf("Uint16 round trip %d -> %d", v, got)
		}
	}
	for _, v := range []uint32{0, 1, 1 << 30, 0xffffffff} {
		PutUint32(b[:], v)
		if got := Uint32(b[:]); got != v {
			t.Errorf("Uint32 round trip %d -> %d", v, got)
		}
	}
}

func TestPutUint24Overflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PutUint24(1<<24) did not panic")
		}
	}()
	var b [3]byte
	PutUint24(b[:], 1<<24)
}

func TestCellRoundTrip(t *testing.T) {
	dst, err := AppendRecord(nil, Record{Number: 1, Cells: []Cell{{Number: 123456, Weight: 789}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != DocHeaderSize+CellSize {
		t.Fatalf("encoded size = %d, want %d", len(dst), DocHeaderSize+CellSize)
	}
	c, err := DecodeCell(dst[DocHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if c.Number != 123456 || c.Weight != 789 {
		t.Errorf("decoded = %+v", c)
	}
}

func TestCellErrors(t *testing.T) {
	dst, err := AppendRecord(nil, Record{Number: 1, Cells: []Cell{{Number: 4, Weight: 1}, {Number: MaxNumber + 1}}})
	if !errors.Is(err, ErrRange) {
		t.Errorf("AppendRecord cell overflow err = %v, want ErrRange", err)
	}
	if len(dst) != DocHeaderSize+CellSize {
		t.Errorf("after the error dst holds %d bytes, want the header and the cell before it (%d)", len(dst), DocHeaderSize+CellSize)
	}
	if _, err := DecodeCell([]byte{1, 2}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("DecodeCell short err = %v, want ErrShortBuffer", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := Record{Number: 42, Cells: []Cell{{1, 3}, {5, 1}, {900000, 65535}}}
	enc, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(enc)) != EncodedRecordSize(len(r.Cells)) {
		t.Errorf("size = %d, want %d", len(enc), EncodedRecordSize(len(r.Cells)))
	}
	got, n, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(enc)) {
		t.Errorf("consumed = %d, want %d", n, len(enc))
	}
	if got.Number != r.Number || len(got.Cells) != len(r.Cells) {
		t.Fatalf("decoded = %+v", got)
	}
	for i := range r.Cells {
		if got.Cells[i] != r.Cells[i] {
			t.Errorf("cell %d = %+v, want %+v", i, got.Cells[i], r.Cells[i])
		}
	}
}

func TestEmptyRecord(t *testing.T) {
	enc, err := AppendRecord(nil, Record{Number: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Number != 7 || len(got.Cells) != 0 || n != DocHeaderSize {
		t.Errorf("decoded = %+v n=%d", got, n)
	}
}

func TestRecordRejectsUnsortedCells(t *testing.T) {
	_, err := AppendRecord(nil, Record{Number: 1, Cells: []Cell{{5, 1}, {3, 1}}})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("unsorted append err = %v, want ErrCorrupt", err)
	}
	_, err = AppendRecord(nil, Record{Number: 1, Cells: []Cell{{5, 1}, {5, 1}}})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate append err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	// Handcraft a record with descending cells.
	var b []byte
	var hdr [DocHeaderSize]byte
	PutUint24(hdr[:], 1)
	PutUint24(hdr[3:], 2)
	b = append(b, hdr[:]...)
	for _, n := range []uint32{9, 3} {
		var cb [CellSize]byte
		PutUint24(cb[:], n)
		PutUint16(cb[3:], 1)
		b = append(b, cb[:]...)
	}
	if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRecordShort(t *testing.T) {
	if _, _, err := DecodeRecord([]byte{1, 2}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short header err = %v, want ErrShortBuffer", err)
	}
	var hdr [DocHeaderSize]byte
	PutUint24(hdr[:], 1)
	PutUint24(hdr[3:], 4) // claims 4 cells, none present
	if _, _, err := DecodeRecord(hdr[:]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("truncated body err = %v, want ErrShortBuffer", err)
	}
}

func TestPeekRecordSize(t *testing.T) {
	r := Record{Number: 9, Cells: []Cell{{2, 1}, {4, 2}}}
	enc, _ := AppendRecord(nil, r)
	size, err := PeekRecordSize(enc[:DocHeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(enc)) {
		t.Errorf("PeekRecordSize = %d, want %d", size, len(enc))
	}
	if _, err := PeekRecordSize([]byte{1}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short peek err = %v, want ErrShortBuffer", err)
	}
}

func TestBTreeCellRoundTrip(t *testing.T) {
	c := BTreeCell{Term: 555555, Addr: 4000000000, DocFreq: 60000}
	enc, err := AppendBTreeCell(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != BTreeCellSize {
		t.Fatalf("size = %d, want %d", len(enc), BTreeCellSize)
	}
	got, err := DecodeBTreeCell(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Errorf("decoded = %+v, want %+v", got, c)
	}
	if _, err := AppendBTreeCell(nil, BTreeCell{Term: MaxNumber + 1}); !errors.Is(err, ErrRange) {
		t.Errorf("overflow err = %v, want ErrRange", err)
	}
	if _, err := DecodeBTreeCell(enc[:5]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short err = %v, want ErrShortBuffer", err)
	}
}

func TestClampWeight(t *testing.T) {
	cases := []struct {
		in   int
		want uint16
	}{{-1, 0}, {0, 0}, {1, 1}, {65535, 65535}, {70000, 65535}}
	for _, c := range cases {
		if got := ClampWeight(c.in); got != c.want {
			t.Errorf("ClampWeight(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// Property: any sorted set of cells round-trips through Record encoding.
func TestQuickRecordRoundTrip(t *testing.T) {
	check := func(number uint32, seed int64, n uint8) bool {
		number %= MaxNumber + 1
		r := rand.New(rand.NewSource(seed))
		count := int(n % 64)
		seen := make(map[uint32]bool, count)
		cells := make([]Cell, 0, count)
		for len(cells) < count {
			num := uint32(r.Intn(MaxNumber + 1))
			if seen[num] {
				continue
			}
			seen[num] = true
			cells = append(cells, Cell{Number: num, Weight: uint16(r.Intn(65536))})
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].Number < cells[j].Number })
		rec := Record{Number: number, Cells: cells}
		enc, err := AppendRecord(nil, rec)
		if err != nil {
			return false
		}
		got, consumed, err := DecodeRecord(enc)
		if err != nil || consumed != int64(len(enc)) || got.Number != number || len(got.Cells) != count {
			return false
		}
		for i := range cells {
			if got.Cells[i] != cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: concatenated records decode back in sequence with PeekRecordSize
// agreeing with DecodeRecord's consumed size.
func TestQuickRecordStream(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%10) + 1
		var stream []byte
		var want []Record
		for i := 0; i < count; i++ {
			nc := r.Intn(8)
			cells := make([]Cell, 0, nc)
			for j := 0; j < nc; j++ {
				cells = append(cells, Cell{Number: uint32(j*10 + r.Intn(9)), Weight: uint16(r.Intn(100))})
			}
			rec := Record{Number: uint32(i), Cells: cells}
			enc, err := AppendRecord(stream, rec)
			if err != nil {
				return false
			}
			stream = enc
			want = append(want, rec)
		}
		off := int64(0)
		for i := 0; i < count; i++ {
			size, err := PeekRecordSize(stream[off:])
			if err != nil {
				return false
			}
			rec, consumed, err := DecodeRecord(stream[off:])
			if err != nil || consumed != size || rec.Number != want[i].Number || len(rec.Cells) != len(want[i].Cells) {
				return false
			}
			off += consumed
		}
		return off == int64(len(stream))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
