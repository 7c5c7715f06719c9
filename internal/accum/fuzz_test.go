package accum

import "testing"

// FuzzStoreMatchesMap feeds a store a random stream of adds and Resets
// from a random starting limit — small ones start passes as the table,
// large ones dense — and holds every pass's sums to a map fed the same
// adds, bit for bit, through every promotion. Joins seldom promote now
// that the plan starts a pass dense when the table would promote, so this
// keeps the promotion path exercised.
//
// The stream is read three bytes at a time: 0xff, rows is a Reset to
// rows%16+1 rows; otherwise row, inner, v adds v/10 to (row, inner), each
// taken modulo the pass's shape.
func FuzzStoreMatchesMap(f *testing.F) {
	f.Add(uint16(0), uint8(3), uint8(7), []byte{0, 1, 5, 2, 6, 9, 1, 1, 3, 0xff, 5, 0, 4, 3, 7})
	f.Add(uint16(256), uint8(4), uint8(8), []byte{
		0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 1, 0, 5, 1, 1, 6, 1, 2, 7, 1, 3, 8,
		2, 0, 9, 2, 1, 10, 2, 2, 11, 2, 3, 12, 3, 0, 13, 3, 1, 14, 3, 2, 15, 0, 0, 16,
		0xff, 2, 0, 1, 1, 0, 7, 2})
	f.Add(uint16(4096), uint8(15), uint8(63), []byte{14, 62, 255, 0xff, 15, 0, 3, 3, 0, 200, 0})
	f.Fuzz(func(t *testing.T, limit uint16, rows8, cols8 uint8, ops []byte) {
		rows, cols := int(rows8%16)+1, int(cols8%64)+1
		s := New(rows, cols, int64(limit))
		ref := make(mapRef)
		for ; len(ops) >= 3; ops = ops[3:] {
			if ops[0] == 0xff {
				sameEntries(t, s.Kind(), collect(s.ForEach), ref)
				rows = int(ops[1]%16) + 1
				s.Reset(rows)
				clear(ref)
				continue
			}
			row, inner, v := int(ops[0])%rows, uint32(ops[1])%uint32(cols), float64(ops[2])/10
			s.Add(row, inner, v)
			ref.add(row, inner, v)
		}
		sameEntries(t, s.Kind(), collect(s.ForEach), ref)
	})
}
