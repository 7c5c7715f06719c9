// Package accum provides the flat similarity accumulators behind the
// paper's accumulating join algorithms (HVNL §4.2, VVM §4.3).
//
// Those algorithms spend essentially all of their CPU time adding u·v
// products into an intermediate-similarity store. Document numbers are
// contiguous (the collection builder assigns 0..N-1), and VVM processes a
// sorted range of outer ids per pass, so the store never needs a general
// hash map:
//
//   - Flat is the per-outer-document accumulator of HVNL: a []float64
//     indexed by inner document number with a touched list while a row is
//     sparse, so draining costs O(non-zero) — preserving the paper's "only
//     non-zero similarities are stored" accounting — and no list once a
//     quarter of the ids are touched, so each accumulation is a single
//     indexed add. A sparse row is finished through Drain, a dense one by
//     a scan in place (Row, then Reset).
//   - Store is VVM's: one per join, Reset between passes. It has
//     two representations and picks between them by size, not by an
//     expected population. A pass starts as the dense rows×cols matrix
//     when that fits the budget M (UseDense), otherwise as a power-of-two
//     open-addressing table keyed by (row, inner); and when the table's
//     next growth would make it larger than the matrix, the store moves
//     into the matrix instead of growing. It never holds more bytes than a
//     table fed the same adds would have reached, and Bytes is what it
//     holds — what Stats.PeakMemoryBytes reports. The matrix is allocated
//     once, with room for the join's largest pass when that pass will be
//     dense as well. Both fill a dense row with the same kernel, addRow.
//
// Both accumulate exactly like a map[key]float64 fed the same adds in the
// same order: per-key float sums are bit-identical (a promotion copies
// each partial sum and later adds continue on it), which is what keeps the
// joins byte-identical to their map-backed originals.
//
// The package also owns how a similarity is accumulated. Every join adds
// the products of one term at a time — one cell of one document against a
// list of cells of the other side — and each store's AddCells is that step:
// the product is (w·float64(c.Weight))·factor, in that association, for
// every family (DESIGN §6), so the joins differ only in the order in which
// they present terms.
package accum

import (
	"math"

	"textjoin/internal/codec"
)

// Flat accumulates values against a contiguous id space 0..n-1. It is the
// per-streamed-document accumulator of HVNL (ids are inner document
// numbers) and of block HHNL (ids are resident slots). It has two regimes
// per streamed document. While sparse, it lists each id on its first
// touch, so draining and resetting cost O(touched) instead of O(n). Once
// the list reaches n/4 ids it is dense: it stops listing, each add is one
// indexed add with no branch, and the caller scans all n values in place
// (Row) — at most four times the list walk it replaces. A value of zero is
// the first-touch mark — there is no second array — so an id whose adds so
// far were all zero is listed again by its next add; the drain clears as
// it reads, so the repeat reads zero, and a zero similarity is no
// candidate.
type Flat struct {
	vals    []float64
	touched []uint32
	limit   int  // the list length at which the regime turns dense
	dense   bool // the list is abandoned until the next drain or Reset
	sums    []Sum
}

// Sum is one id's accumulated value, as Drain hands it out.
type Sum struct {
	ID uint32
	V  float64
}

// NewFlat returns a Flat over ids 0..n-1.
func NewFlat(n int) *Flat {
	return &Flat{vals: make([]float64, n), limit: n / 4}
}

// Add accumulates v into id.
func (f *Flat) Add(id uint32, v float64) {
	if !f.dense && f.vals[id] == 0 {
		f.touched = append(f.touched, id)
		f.dense = len(f.touched) >= f.limit
	}
	f.vals[id] += v
}

// AddCells accumulates one term's products: w is the weight of the streamed
// document's cell, cells the other side's cells of that term, and cell c
// adds to id c.Number. It equals one Add per cell.
func (f *Flat) AddCells(cells []codec.Cell, w, factor float64) {
	if !f.dense {
		cells = f.addListed(cells, w, factor)
	}
	addRow(f.vals, cells, w, factor)
}

// addRow is the one dense kernel, Flat's and Store's: cell c adds
// (w·c.Weight)·factor to vals[c.Number]. It takes four cells per step
// behind one bounds check on cells; the adds stay in cell order, so a
// repeated id sums exactly as one Add per cell.
func addRow(vals []float64, cells []codec.Cell, w, factor float64) {
	for ; len(cells) >= 4; cells = cells[4:] {
		c := cells[:4:4]
		vals[c[0].Number] += (w * float64(c[0].Weight)) * factor
		vals[c[1].Number] += (w * float64(c[1].Weight)) * factor
		vals[c[2].Number] += (w * float64(c[2].Weight)) * factor
		vals[c[3].Number] += (w * float64(c[3].Weight)) * factor
	}
	for _, c := range cells {
		vals[c.Number] += (w * float64(c.Weight)) * factor
	}
}

// addListed is AddCells in the sparse regime. When the list reaches the
// limit it turns the regime dense and returns the cells it left unadded.
func (f *Flat) addListed(cells []codec.Cell, w, factor float64) []codec.Cell {
	vals, touched := f.vals, f.touched
	for i, c := range cells {
		id := c.Number
		v := vals[id]
		vals[id] = v + (w*float64(c.Weight))*factor
		if v == 0 {
			touched = append(touched, id)
			if len(touched) >= f.limit {
				f.touched, f.dense = touched, true
				return cells[i+1:]
			}
		}
	}
	f.touched = touched
	return nil
}

// Dense reports whether the row has stopped listing, so Row applies.
func (f *Flat) Dense() bool { return f.dense }

// Row returns a dense row's values, indexed by id, zero for the untouched:
// a caller finishes the row by reading it in place, in id order, and then
// calls Reset.
func (f *Flat) Row() []float64 { return f.vals }

// Drain finishes a sparse row: it returns every listed id holding a
// non-zero value, with that value, in first-touch order, and readies the
// accumulator for the next streamed document. The slice is the Flat's,
// valid until the next Drain. A dense row lists no ids; it is finished
// through Row and Reset, and Drain panics on it.
func (f *Flat) Drain() []Sum {
	if f.dense {
		panic("accum: Drain of a dense row; read Row and Reset")
	}
	if f.sums == nil {
		f.sums = make([]Sum, 0, f.limit)
	}
	vals, dst := f.vals, f.sums[:0]
	for _, id := range f.touched {
		if v := vals[id]; v != 0 {
			dst = append(dst, Sum{ID: id, V: v})
			vals[id] = 0
		}
	}
	f.touched = f.touched[:0]
	return dst
}

// Take returns what id has accumulated since the last Reset and clears it:
// a drain of listed ids, which Reset must follow.
func (f *Flat) Take(id uint32) float64 {
	v := f.vals[id]
	f.vals[id] = 0
	return v
}

// Reset clears every value — only the listed ids while sparse — readying
// the accumulator for the next streamed document.
func (f *Flat) Reset() {
	if f.dense {
		clear(f.vals)
	} else {
		for _, id := range f.touched {
			f.vals[id] = 0
		}
	}
	f.touched, f.dense = f.touched[:0], false
}

// UseDense reports whether a dense rows×cols float64 matrix fits within
// budgetBytes. This is the paper's regime split restated in bytes: the
// sparse estimate SM = 4·δ·N1·N2 already sized the pass, so a pass whose
// full matrix fits the same budget can drop the sparse indirection
// entirely.
func UseDense(rows, cols int, budgetBytes int64) bool {
	cells := int64(rows) * int64(cols)
	return cells <= budgetBytes/8
}

// Store is VVM's similarity store: values accumulate against (row, inner)
// where row indexes a pass's block of outer ids and inner is an inner
// document number 0..cols-1. It is created once per join and readied for
// each pass by Reset, which keeps its capacity.
//
// It assumes non-negative adds (term weights and factors are
// non-negative), so a pair is non-zero iff it was touched.
type Store struct {
	rows, cols int
	most       int // the rows of the join's largest pass
	// limit is the largest matrix, in bytes, a pass may start dense in:
	// the budget M, raised by every promotion to the table size the store
	// declined to grow to.
	limit    int64
	dense    bool
	promoted bool      // this pass moved from the table into the matrix
	matrix   []float64 // rows×cols, row-major, while dense
	table    table     // while not dense
}

// New returns a store over cols inner documents with budgetBytes of the
// pass budget M, readied for a pass of rows rows.
func New(rows, cols int, budgetBytes int64) *Store {
	s := &Store{cols: cols, limit: budgetBytes}
	s.Reset(rows)
	return s
}

// Reserve tells the store the rows of the caller's largest pass, which
// must still be to come: VVM's partition ends on one. A matrix allocated
// from then on has room for that pass when it would start dense too — it
// will, since the limit only rises — so a join allocates one matrix, not
// one per longer pass, and never more than the largest pass would hold.
func (s *Store) Reserve(rows int) { s.most = rows }

// Reset empties the store for a pass of rows rows. The pass starts dense
// when its matrix fits the limit — reusing the matrix already held when
// it is large enough — and as the table otherwise, which keeps its slots.
func (s *Store) Reset(rows int) {
	s.rows, s.promoted = rows, false
	s.dense = UseDense(rows, s.cols, s.limit)
	if !s.dense {
		s.matrix = nil
		s.table.reset()
		return
	}
	s.table = table{}
	if n := rows * s.cols; n <= cap(s.matrix) {
		s.matrix = s.matrix[:n]
		clear(s.matrix)
	} else {
		s.matrix = s.alloc()
	}
}

// alloc returns a zeroed matrix for the pass, with room for the reserved
// largest pass when that pass would start dense.
func (s *Store) alloc() []float64 {
	n := s.rows * s.cols
	if s.most > s.rows && UseDense(s.most, s.cols, s.limit) {
		return make([]float64, n, s.most*s.cols)
	}
	return make([]float64, n)
}

// Add accumulates v into (row, inner).
func (s *Store) Add(row int, inner uint32, v float64) {
	if s.dense {
		s.matrix[row*s.cols+int(inner)] += v
		return
	}
	key := uint64(row)<<32 | uint64(inner)
	for !s.table.add(key, v) {
		if 2*s.table.bytes() > int64(s.rows)*int64(s.cols)*8 { // the matrix's bytes
			s.promote()
			s.matrix[row*s.cols+int(inner)] += v
			return
		}
		s.table.grow()
	}
}

// AddCells accumulates one term's products into a row: w is the weight of
// the row's cell and cell c adds to (row, c.Number). It equals one Add per
// cell.
func (s *Store) AddCells(cells []codec.Cell, row int, w, factor float64) {
	if !s.dense {
		for _, c := range cells {
			s.Add(row, c.Number, (w*float64(c.Weight))*factor)
		}
		return
	}
	addRow(s.Row(row), cells, w, factor)
}

// promote moves the table's pairs into a fresh matrix, each partial sum
// copied exactly, and drops the table.
func (s *Store) promote() {
	s.limit = max(s.limit, 2*s.table.bytes())
	s.matrix = s.alloc()
	s.table.forEach(func(row int, inner uint32, v float64) {
		s.matrix[row*s.cols+int(inner)] = v
	})
	s.table = table{}
	s.dense, s.promoted = true, true
}

// Dense reports whether the store is the matrix, so Row applies.
func (s *Store) Dense() bool { return s.dense }

// Row returns a dense store's row: the accumulated value of every inner
// document, zero for the untouched.
func (s *Store) Row(row int) []float64 {
	return s.matrix[row*s.cols : (row+1)*s.cols]
}

// ForEach calls fn for every non-zero pair: row-major when dense, in slot
// order otherwise. Join results do not depend on the order because each
// pair is a distinct top-λ candidate.
func (s *Store) ForEach(fn func(row int, inner uint32, v float64)) {
	if !s.dense {
		s.table.forEach(fn)
		return
	}
	for i, v := range s.matrix {
		if v != 0 {
			fn(i/s.cols, uint32(i%s.cols), v)
		}
	}
}

// Len returns the number of non-zero pairs.
func (s *Store) Len() int {
	if !s.dense {
		return s.table.n
	}
	n := 0
	for _, v := range s.matrix {
		if v != 0 {
			n++
		}
	}
	return n
}

// Bytes returns the resident size of the representation held: the
// matrix's capacity or the table's key and value arrays.
func (s *Store) Bytes() int64 {
	if s.dense {
		return int64(cap(s.matrix)) * 8
	}
	return s.table.bytes()
}

// Kind names the regime the pass is in for telemetry labels: "dense"
// from its start, "promoted" from the table into the matrix, or "table".
func (s *Store) Kind() string {
	switch {
	case s.promoted:
		return "promoted"
	case s.dense:
		return "dense"
	}
	return "table"
}

// table is the Store's sparse representation: a power-of-two
// open-addressing table keyed by row<<32 | inner. Linear probing,
// fibonacci hashing, full at 3/4 load; the Store decides whether a full
// table grows.
type table struct {
	keys  []uint64
	vals  []float64
	shift uint // 64 - log2(len(keys))
	n     int
}

// tableEmpty marks a free slot. It cannot collide with a real key: rows
// and inner numbers are bounded by codec.MaxNumber < 2^32-1.
const tableEmpty = math.MaxUint64

const tableMinSize = 16

func (t *table) init(size int) {
	t.keys = make([]uint64, size)
	for i := range t.keys {
		t.keys[i] = tableEmpty
	}
	t.vals = make([]float64, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
}

// reset empties the table, keeping its slots (values are written on
// insert, so only the keys need clearing).
func (t *table) reset() {
	if t.keys == nil {
		t.init(tableMinSize)
		return
	}
	for i := range t.keys {
		t.keys[i] = tableEmpty
	}
	t.n = 0
}

// slot returns the starting probe index for key.
func (t *table) slot(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// add accumulates v into key. It stores nothing and returns false when key
// is new and the table is full.
func (t *table) add(key uint64, v float64) bool {
	mask := len(t.keys) - 1
	i := t.slot(key)
	for {
		switch t.keys[i] {
		case key:
			t.vals[i] += v
			return true
		case tableEmpty:
			if t.n >= len(t.keys)*3/4 {
				return false
			}
			t.keys[i] = key
			t.vals[i] = v
			t.n++
			return true
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table, rehashing every pair.
func (t *table) grow() {
	oldKeys, oldVals, n := t.keys, t.vals, t.n
	t.init(len(oldKeys) * 2)
	t.n = n
	mask := len(t.keys) - 1
	for j, key := range oldKeys {
		if key == tableEmpty {
			continue
		}
		i := t.slot(key)
		for t.keys[i] != tableEmpty {
			i = (i + 1) & mask
		}
		t.keys[i] = key
		t.vals[i] = oldVals[j]
	}
}

// forEach calls fn for every stored pair, in slot order.
func (t *table) forEach(fn func(row int, inner uint32, v float64)) {
	for i, key := range t.keys {
		if key != tableEmpty {
			fn(int(key>>32), uint32(key), t.vals[i])
		}
	}
}

// bytes returns the size of the key and value arrays.
func (t *table) bytes() int64 { return int64(len(t.keys)) * 16 }
