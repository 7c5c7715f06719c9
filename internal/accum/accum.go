// Package accum provides the flat similarity accumulators behind the
// paper's accumulating join algorithms (HVNL §4.2, VVM §4.3).
//
// Those algorithms spend essentially all of their CPU time adding u·v
// products into an intermediate-similarity store. Document numbers are
// contiguous (the collection builder assigns 0..N-1), and VVM processes a
// sorted range of outer ids per pass, so the store never needs a general
// hash map:
//
//   - Flat is the per-outer-document accumulator of HVNL and the
//     per-streamed-document one of block HHNL: one dense []float64 row
//     indexed by inner document number (or resident slot), so each
//     accumulation is a single indexed add. The paper keeps "only non-zero
//     similarities"; the row holds all n, which is what the plan charges
//     for it, and a row is finished by a scan in place (Row, then Reset),
//     which HVNL's dense drain (blockmax.go) and the block joins' candidate
//     list (above.go) make cheap.
//   - Store is VVM's: one per join, Reset between passes. It has two
//     representations. A pass starts as the dense rows×cols matrix when
//     that fits the store's limit (UseDense), otherwise as a power-of-two
//     open-addressing table keyed by (row, inner); and when the table's
//     next growth would make it larger than the matrix, the store moves
//     into the matrix instead of growing. The limit is the caller's: VVM's
//     planner passes the budget M, or the largest pass's matrix when an
//     expected population — δ̂·rows·cols pairs — would promote the table
//     anyway (Promotes, the same rule Add applies). So the table and its
//     promotion are the safety net for an estimate that falls short. Bytes
//     is what the store holds — what Stats.PeakMemoryBytes reports. The
//     matrix is allocated once, with room for the join's largest pass when
//     that pass will be dense as well; Restart keeps its array for the
//     next join, so Bytes reports the matrix this join sized, not the
//     array that backs it. Both fill a dense row with the same kernel,
//     addRow.
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
//
// A posting list has two forms. Its cells go through AddCells; a posting
// that covers at least a quarter of an accumulator's n ids — 4·df ≥ n,
// when the CPU has the vector kernel (Columnar) — is held as a column, one
// weight per id (FillColumn), and goes through AddColumn: one contiguous
// sweep, on amd64 with AVX2 four products per instruction, with the same
// two multiplications per product, so the sums are AddCells's bit for
// bit (column.go).
package accum

import (
	"math"
	"slices"

	"textjoin/internal/codec"
)

// Flat accumulates values against a contiguous id space 0..n-1. It is the
// per-streamed-document accumulator of HVNL (ids are inner document
// numbers) and of block HHNL (ids are resident slots): one dense row, so
// each add is one indexed add with no branch. The caller finishes a row by
// reading it in place (Row) and then calls Reset.
type Flat struct {
	vals []float64
}

// NewFlat returns a Flat over ids 0..n-1.
func NewFlat(n int) *Flat {
	f := &Flat{}
	f.Resize(n)
	return f
}

// Resize empties f and readies it, as NewFlat would, for ids 0..n-1. It
// keeps f's array, growing it only past every earlier n.
func (f *Flat) Resize(n int) {
	f.vals = slices.Grow(f.vals[:0], n)[:n]
	clear(f.vals)
}

// Add accumulates v into id.
func (f *Flat) Add(id uint32, v float64) { f.vals[id] += v }

// AddCells accumulates one term's products: w is the weight of the streamed
// document's cell, cells the other side's cells of that term, and cell c
// adds to id c.Number. It equals one Add per cell.
func (f *Flat) AddCells(cells []codec.Cell, w, factor float64) {
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

// Row returns the row's values, indexed by id, zero for the untouched: a
// caller finishes the row by reading it in place and then calls Reset.
func (f *Flat) Row() []float64 { return f.vals }

// Reset clears every value, readying the accumulator for the next
// streamed document.
func (f *Flat) Reset() { clear(f.vals) }

// UseDense reports whether a dense rows×cols float64 matrix fits within
// budgetBytes. This is the paper's regime split restated in bytes: the
// sparse estimate SM = 4·δ·N1·N2 already sized the pass, so a pass whose
// full matrix fits the same budget can drop the sparse indirection
// entirely.
func UseDense(rows, cols int, budgetBytes int64) bool {
	cells := int64(rows) * int64(cols)
	return cells <= budgetBytes/8
}

// outgrows is the promotion rule: a full table of slots slots moves into
// the rows×cols matrix instead of growing when its next growth would hold
// more bytes than the matrix.
func outgrows(slots, rows, cols int) bool {
	return 2*int64(slots)*16 > int64(rows)*int64(cols)*8
}

// Promotes reports whether a pass of rows×cols that starts as the table
// and is fed pairs distinct pairs finishes promoted into the matrix: the
// question Store.Add answers at each full table, asked ahead of the pass.
// It allocates nothing.
func Promotes(rows, cols int, pairs int64) bool {
	for slots := tableMinSize; pairs > int64(slots)*3/4; slots *= 2 {
		if outgrows(slots, rows, cols) {
			return true
		}
	}
	return false
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
	// the limit New was given, raised by every promotion to the table
	// size the store declined to grow to.
	limit    int64
	dense    bool
	promoted bool      // this pass moved from the table into the matrix
	matrix   []float64 // rows×cols, row-major, while dense: a prefix of buf
	// size is the cells of the matrix the join has sized, 0 while not
	// dense: what Bytes reports. buf backs it, and outlives the join.
	size  int
	buf   []float64
	table table // while not dense
}

// New returns a store over cols inner documents, readied for a pass of
// rows rows, whose passes start dense while their matrix fits limitBytes.
func New(rows, cols int, limitBytes int64) *Store {
	s := &Store{}
	s.Restart(rows, cols, limitBytes)
	return s
}

// Restart readies s for another join exactly as New(rows, cols,
// limitBytes) would, but keeps the matrix's array: a join whose matrix
// fits it allocates none. The table starts afresh.
func (s *Store) Restart(rows, cols int, limitBytes int64) {
	*s = Store{cols: cols, limit: limitBytes, buf: s.buf}
	s.Reset(rows)
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
		s.matrix, s.size = nil, 0
		s.table.reset()
		return
	}
	s.table = table{}
	if n := rows * s.cols; n <= s.size {
		s.matrix = s.buf[:n]
		clear(s.matrix)
	} else {
		s.alloc()
	}
}

// alloc sizes a zeroed matrix for the pass, with room for the reserved
// largest pass when that pass would start dense. It takes a new array
// only when buf is smaller than that.
func (s *Store) alloc() {
	n := s.rows * s.cols
	s.size = n
	if s.most > s.rows && UseDense(s.most, s.cols, s.limit) {
		s.size = s.most * s.cols
	}
	if s.size > cap(s.buf) {
		s.buf = make([]float64, s.size)
	} else {
		clear(s.buf[:n])
	}
	s.matrix = s.buf[:n]
}

// Add accumulates v into (row, inner).
func (s *Store) Add(row int, inner uint32, v float64) {
	if s.dense {
		s.matrix[row*s.cols+int(inner)] += v
		return
	}
	key := uint64(row)<<32 | uint64(inner)
	for !s.table.add(key, v) {
		if outgrows(len(s.table.keys), s.rows, s.cols) {
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
	s.alloc()
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
// matrix the join sized or the table's key and value arrays.
func (s *Store) Bytes() int64 {
	if s.dense {
		return int64(s.size) * 8
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
