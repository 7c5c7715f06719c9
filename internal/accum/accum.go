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
//     indexed by inner document number with a touched list, so reset and
//     iteration cost O(non-zero) — preserving the paper's "only non-zero
//     similarities are stored" accounting — while each accumulation is a
//     single indexed add.
//   - Dense is the per-pass accumulator of VVM when the rows×cols matrix
//     fits the pass's memory budget: one contiguous block, no per-add
//     branching at all.
//   - Table is the fallback when it does not: a power-of-two
//     open-addressing table keyed by (row, inner), still one cache line
//     per accumulation in the common hit case.
//
// All three accumulate exactly like a map[key]float64 fed the same adds in
// the same order: per-key float sums are bit-identical, which is what keeps
// the joins byte-identical to their map-backed originals.
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

// Flat accumulates values against a contiguous id space 0..n-1, tracking
// which ids were touched so that iteration and reset cost O(touched)
// instead of O(n). It is the per-streamed-document accumulator of HVNL
// (ids are inner document numbers) and of block HHNL (ids are resident
// slots). A value of zero is the first-touch mark — there is no second
// array — so an id whose adds so far were all zero is listed again by its
// next add; Take clears as it reads, so the repeat reads zero, and a zero
// similarity is no candidate.
type Flat struct {
	vals    []float64
	touched []uint32
}

// NewFlat returns a Flat over ids 0..n-1.
func NewFlat(n int) *Flat {
	return &Flat{vals: make([]float64, n)}
}

// Add accumulates v into id.
func (f *Flat) Add(id uint32, v float64) {
	if f.vals[id] == 0 {
		f.touched = append(f.touched, id)
	}
	f.vals[id] += v
}

// AddCells accumulates one term's products: w is the weight of the streamed
// document's cell, cells the other side's cells of that term, and cell c
// adds to id c.Number-lo. It equals one Add per cell.
func (f *Flat) AddCells(cells []codec.Cell, lo uint32, w, factor float64) {
	vals, touched := f.vals, f.touched // locals: the loop is the joins' hottest
	for _, c := range cells {
		id := c.Number - lo
		v := vals[id]
		if v == 0 {
			touched = append(touched, id)
		}
		vals[id] = v + (w*float64(c.Weight))*factor
	}
	f.touched = touched
}

// Len returns the number of ids touched since the last Reset.
func (f *Flat) Len() int { return len(f.touched) }

// Touched returns the touched ids in first-touch order, valid until the
// next Add, AddCells or Reset.
func (f *Flat) Touched() []uint32 { return f.touched }

// Take returns what id has accumulated since the last Reset and clears it.
func (f *Flat) Take(id uint32) float64 {
	v := f.vals[id]
	f.vals[id] = 0
	return v
}

// Kind names the store for telemetry labels.
func (f *Flat) Kind() string { return "flat" }

// Reset clears only the touched slots, readying the accumulator for the
// next streamed document.
func (f *Flat) Reset() {
	for _, id := range f.touched {
		f.vals[id] = 0
	}
	f.touched = f.touched[:0]
}

// Accumulator is the per-pass similarity store of VVM: values accumulate
// against (row, inner) where row indexes the pass's outer range and inner
// is an inner document number 0..cols-1.
//
// Implementations assume non-negative adds (term weights and factors are
// non-negative), so a pair is non-zero iff it was touched.
type Accumulator interface {
	// Add accumulates v into (row, inner).
	Add(row int, inner uint32, v float64)
	// AddCells accumulates one term's products into a row: w is the
	// weight of the row's cell and cell c adds to (row, c.Number). It
	// equals one Add per cell.
	AddCells(cells []codec.Cell, row int, w, factor float64)
	// ForEach calls fn for every non-zero pair. Iteration order is
	// unspecified; join results do not depend on it because each pair is
	// a distinct top-λ candidate.
	ForEach(fn func(row int, inner uint32, v float64))
	// Len returns the number of non-zero pairs.
	Len() int
	// Bytes returns the resident size of the store, for
	// Stats.PeakMemoryBytes.
	Bytes() int64
	// Kind names the store ("dense" or "table") so telemetry can label
	// which regime a pass ran in.
	Kind() string
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

// New returns the accumulator for one VVM pass: Dense when the full matrix
// fits budgetBytes, Table otherwise.
func New(rows, cols int, budgetBytes int64) Accumulator {
	if UseDense(rows, cols, budgetBytes) {
		return NewDense(rows, cols)
	}
	return NewTable(0)
}

// Dense is a rows×cols matrix accumulator. Adds are unconditional indexed
// adds; iteration scans the matrix and skips zeros (values are sums of
// non-negative products, so zero means untouched).
type Dense struct {
	vals []float64
	cols int
}

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{vals: make([]float64, rows*cols), cols: cols}
}

// Add accumulates v into (row, inner).
func (d *Dense) Add(row int, inner uint32, v float64) {
	d.vals[row*d.cols+int(inner)] += v
}

// AddCells accumulates one term's products into row.
func (d *Dense) AddCells(cells []codec.Cell, row int, w, factor float64) {
	vals := d.vals[row*d.cols : (row+1)*d.cols]
	for _, c := range cells {
		vals[c.Number] += (w * float64(c.Weight)) * factor
	}
}

// ForEach calls fn for every non-zero pair in row-major order.
func (d *Dense) ForEach(fn func(row int, inner uint32, v float64)) {
	for i, v := range d.vals {
		if v != 0 {
			fn(i/d.cols, uint32(i%d.cols), v)
		}
	}
}

// Len returns the number of non-zero cells.
func (d *Dense) Len() int {
	n := 0
	for _, v := range d.vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Bytes returns the matrix size.
func (d *Dense) Bytes() int64 { return int64(len(d.vals)) * 8 }

// Kind names the store for telemetry labels.
func (d *Dense) Kind() string { return "dense" }

// Table is a power-of-two open-addressing accumulator keyed by
// (row, inner). Linear probing, fibonacci hashing, grown at 3/4 load.
type Table struct {
	keys  []uint64
	vals  []float64
	shift uint // 64 - log2(len(keys))
	n     int
}

// tableEmpty marks a free slot. It cannot collide with a real key: rows
// and inner numbers are bounded by codec.MaxNumber < 2^32-1.
const tableEmpty = math.MaxUint64

const tableMinSize = 16

// NewTable returns a table pre-sized for hint pairs (0 for the default).
func NewTable(hint int) *Table {
	size := tableMinSize
	for size*3/4 < hint {
		size *= 2
	}
	t := &Table{}
	t.init(size)
	return t
}

func (t *Table) init(size int) {
	t.keys = make([]uint64, size)
	for i := range t.keys {
		t.keys[i] = tableEmpty
	}
	t.vals = make([]float64, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// slot returns the starting probe index for key.
func (t *Table) slot(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// Add accumulates v into (row, inner).
func (t *Table) Add(row int, inner uint32, v float64) {
	key := uint64(row)<<32 | uint64(inner)
	mask := len(t.keys) - 1
	i := t.slot(key)
	for {
		switch t.keys[i] {
		case key:
			t.vals[i] += v
			return
		case tableEmpty:
			if t.n >= len(t.keys)*3/4 {
				t.grow()
				t.Add(row, inner, v)
				return
			}
			t.keys[i] = key
			t.vals[i] = v
			t.n++
			return
		}
		i = (i + 1) & mask
	}
}

// AddCells accumulates one term's products into row.
func (t *Table) AddCells(cells []codec.Cell, row int, w, factor float64) {
	for _, c := range cells {
		t.Add(row, c.Number, (w*float64(c.Weight))*factor)
	}
}

func (t *Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
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

// ForEach calls fn for every stored pair, in slot order.
func (t *Table) ForEach(fn func(row int, inner uint32, v float64)) {
	for i, key := range t.keys {
		if key != tableEmpty {
			fn(int(key>>32), uint32(key), t.vals[i])
		}
	}
}

// Len returns the number of stored pairs.
func (t *Table) Len() int { return t.n }

// Bytes returns the size of the key and value arrays.
func (t *Table) Bytes() int64 { return int64(len(t.keys)) * 16 }

// Kind names the store for telemetry labels.
func (t *Table) Kind() string { return "table" }
