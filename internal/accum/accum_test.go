package accum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"textjoin/internal/codec"
)

// mapRef replays adds into the map semantics the join algorithms used
// before this package existed.
type mapRef map[uint64]float64

func (m mapRef) add(row int, inner uint32, v float64) {
	m[uint64(row)<<32|uint64(inner)] += v
}

// collect drains a store (a ForEach method value) into comparable form.
func collect(forEach func(func(row int, inner uint32, v float64))) map[uint64]float64 {
	out := make(map[uint64]float64)
	forEach(func(row int, inner uint32, v float64) {
		out[uint64(row)<<32|uint64(inner)] = v
	})
	return out
}

// put is a plain table's add: it grows whenever the table is full.
func (t *table) put(row int, inner uint32, v float64) {
	for key := uint64(row)<<32 | uint64(inner); !t.add(key, v); {
		t.grow()
	}
}

// newTable is a plain table at its minimum size.
func newTable() *table {
	t := &table{}
	t.reset()
	return t
}

// sameEntries compares accumulator contents against the map reference,
// ignoring entries the reference holds at exactly zero (a map keeps a key
// accumulated back to zero; the flat stores treat zero as absent — the
// joins never offer either as a match).
func sameEntries(t *testing.T, name string, got, want map[uint64]float64) {
	t.Helper()
	for k, v := range want {
		if v == 0 {
			continue
		}
		if got[k] != v {
			t.Fatalf("%s: key %d = %v, want %v", name, k, got[k], v)
		}
	}
	for k, v := range got {
		if want[k] != v {
			t.Fatalf("%s: extra key %d = %v (want %v)", name, k, v, want[k])
		}
	}
}

// TestAccumulatorEquivalence drives a store that is dense from the start,
// one that starts as the table (and moves into the matrix when the table
// would outgrow it) and a plain table with identical random add sequences,
// and checks all three match the map semantics bit-for-bit — including
// per-key float sums, which must accumulate in arrival order.
func TestAccumulatorEquivalence(t *testing.T) {
	check := func(seed int64, rows8, cols8 uint8) bool {
		rows := int(rows8%30) + 1
		cols := int(cols8%50) + 1
		r := rand.New(rand.NewSource(seed))
		dense := New(rows, cols, int64(rows*cols*8))
		sparse := New(rows, cols, 0)
		plain := newTable()
		ref := make(mapRef)
		for i, n := 0, r.Intn(500); i < n; i++ {
			row := r.Intn(rows)
			inner := uint32(r.Intn(cols))
			v := float64(r.Intn(50)+1) * float64(r.Intn(50)+1) * (r.Float64() + 0.5)
			dense.Add(row, inner, v)
			sparse.Add(row, inner, v)
			plain.put(row, inner, v)
			ref.add(row, inner, v)
		}
		if dense.Kind() != "dense" || sparse.Kind() == "dense" {
			t.Fatalf("kinds %s and %s, want dense and table or promoted", dense.Kind(), sparse.Kind())
		}
		sameEntries(t, "dense", collect(dense.ForEach), map[uint64]float64(ref))
		sameEntries(t, sparse.Kind(), collect(sparse.ForEach), map[uint64]float64(ref))
		sameEntries(t, "plain table", collect(plain.forEach), map[uint64]float64(ref))
		if dense.Len() != len(ref) || sparse.Len() != len(ref) || plain.n != len(ref) {
			t.Fatalf("len: dense %d %s %d table %d want %d", dense.Len(), sparse.Kind(), sparse.Len(), plain.n, len(ref))
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStorePromotesExactlyAcrossResets is the store's property: random
// Add and AddCells streams over passes of random row counts, each pass's
// contents equal to a map fed the same adds, bit for bit — through
// promotions in mid-stream and passes that start dense because an earlier
// one promoted — and after every step Bytes no larger than a plain table
// fed the same stream (kept across passes, as the store keeps its slots).
func TestStorePromotesExactlyAcrossResets(t *testing.T) {
	kinds := map[string]int{}
	check := func(seed int64, cols8 uint8) bool {
		cols := int(cols8%40) + 1
		r := rand.New(rand.NewSource(seed))
		s := New(0, cols, 0)
		plain := newTable()
		for pass := 0; pass < 4; pass++ {
			// One step is a Reset, an AddCells call or a single Add.
			step := func() {
				if got, lim := s.Bytes(), plain.bytes(); got > lim {
					t.Fatalf("seed %d pass %d: store holds %d bytes (%s), a plain table %d", seed, pass, got, s.Kind(), lim)
				}
			}
			rows := r.Intn(12) + 1
			s.Reset(rows)
			plain.reset()
			step()
			ref := make(mapRef)
			density := r.Float64()
			for i, n := 0, r.Intn(rows*cols*2+1); i < n; i++ {
				row := r.Intn(rows)
				w, factor := float64(1+r.Intn(60000)), math.Sqrt(r.Float64()*9)
				var cells []codec.Cell
				for inner := 0; inner < cols; inner++ {
					if r.Float64() < density/4 {
						cells = append(cells, codec.Cell{Number: uint32(inner), Weight: uint16(1 + r.Intn(60000))})
					}
				}
				byCells := r.Intn(2) == 0
				for _, c := range cells {
					v := (w * float64(c.Weight)) * factor
					ref.add(row, c.Number, v)
					plain.put(row, c.Number, v)
					if !byCells {
						s.Add(row, c.Number, v)
						step()
					}
				}
				if byCells {
					s.AddCells(cells, row, w, factor)
					step()
				}
			}
			got := collect(s.ForEach)
			if len(got) != len(ref) || s.Len() != len(ref) {
				t.Fatalf("seed %d pass %d (%s): %d pairs, Len %d, want %d", seed, pass, s.Kind(), len(got), s.Len(), len(ref))
			}
			for k, v := range ref {
				if math.Float64bits(got[k]) != math.Float64bits(v) {
					t.Fatalf("seed %d pass %d (%s): key %d = %v, want %v", seed, pass, s.Kind(), k, got[k], v)
				}
			}
			kinds[s.Kind()]++
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, kind := range []string{"table", "promoted", "dense"} {
		if kinds[kind] == 0 {
			t.Errorf("no pass ended %s: %v", kind, kinds)
		}
	}
}

// finished finishes f's row as a join does — a dense one by reading Row in
// place and then Reset, a sparse one by Drain — into a map from id to the
// value's bits, failing on an id drained twice or a zero drained at all.
func finished(t *testing.T, f *Flat) map[uint32]uint64 {
	t.Helper()
	out := map[uint32]uint64{}
	if f.Dense() {
		for id, v := range f.Row() {
			if v != 0 {
				out[uint32(id)] = math.Float64bits(v)
			}
		}
		f.Reset()
		return out
	}
	for _, s := range f.Drain() {
		if _, dup := out[s.ID]; dup || s.V == 0 {
			t.Fatalf("drain hands out id %d = %v twice or at zero", s.ID, s.V)
		}
		out[s.ID] = math.Float64bits(s.V)
	}
	return out
}

// sameBits compares a drained row with the reference's non-zero sums.
func sameBits(t *testing.T, name string, got map[uint32]uint64, ref map[uint32]float64) {
	t.Helper()
	want := 0
	for id, v := range ref {
		if v == 0 {
			continue
		}
		want++
		if got[id] != math.Float64bits(v) {
			t.Fatalf("%s: id %d = %v, want %v", name, id, math.Float64frombits(got[id]), v)
		}
	}
	if len(got) != want {
		t.Fatalf("%s: %d ids drained, want %d", name, len(got), want)
	}
}

// TestFlatEquivalence checks the HVNL per-document accumulator against map
// semantics across rows (one per outer document), in both regimes and both
// ways a row ends: finished (a Drain while sparse, Row and Reset while
// dense), or a Take of listed ids followed by Reset — so
// a row that went dense and was finished by listed Takes must leave the
// next row clean. Every combination must occur.
func TestFlatEquivalence(t *testing.T) {
	ends := map[string]int{}
	check := func(seed int64, n8 uint8) bool {
		n := int(n8%60) + 1
		r := rand.New(rand.NewSource(seed))
		f := NewFlat(n)
		for row := 0; row < 4; row++ {
			ref := make(map[uint32]float64)
			for i, adds := 0, r.Intn(n*3); i < adds; i++ {
				id := uint32(r.Intn(n))
				v := float64(r.Intn(100)) * r.Float64() // one add in a hundred is zero
				f.Add(id, v)
				ref[id] += v
			}
			regime := "sparse"
			if f.dense {
				regime = "dense"
			}
			if r.Intn(2) == 0 {
				ends["finish/"+regime]++
				sameBits(t, "finish/"+regime, finished(t, f), ref)
				continue
			}
			ends["take/"+regime]++
			for id := 0; id < n; id++ {
				if r.Intn(3) > 0 {
					continue // not listed: left for Reset
				}
				if got := f.Take(uint32(id)); math.Float64bits(got) != math.Float64bits(ref[uint32(id)]) {
					t.Fatalf("take/%s: id %d = %v, want %v", regime, id, got, ref[uint32(id)])
				}
			}
			f.Reset()
		}
		if got := finished(t, f); len(got) != 0 {
			t.Fatalf("an empty row drains %v", got)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	for _, end := range []string{"finish/sparse", "finish/dense", "take/sparse", "take/dense"} {
		if ends[end] == 0 {
			t.Errorf("no row ended %s: %v", end, ends)
		}
	}
}

// TestFlatDenseTakeThenReset is the trap of the dense regime by hand: a row
// that stopped listing is finished by a Take of one listed id, and Reset
// must clear the ids nobody took, or they leak into the next row.
func TestFlatDenseTakeThenReset(t *testing.T) {
	f := NewFlat(8) // dense at the second listed id
	f.Add(1, 2)
	f.Add(5, 3)
	f.Add(6, 4)
	if !f.dense {
		t.Fatal("two ids of eight: want dense")
	}
	if got := f.Take(5); got != 3 {
		t.Fatalf("Take(5) = %v, want 3", got)
	}
	f.Reset()
	f.Add(6, 1)
	sameBits(t, "next row", finished(t, f), map[uint32]float64{6: 1})
}

// TestFlatRowInPlace is the dense finish every join uses: while dense, Row
// holds every value at its id, Drain refuses the row (it lists no ids),
// and Reset leaves the next row listed and clean.
func TestFlatRowInPlace(t *testing.T) {
	f := NewFlat(8) // dense at the second listed id
	f.Add(1, 2)
	if f.Dense() {
		t.Fatal("one id of eight: want sparse")
	}
	f.Add(5, 3)
	if !f.Dense() {
		t.Fatal("two ids of eight: want dense")
	}
	want := []float64{0, 2, 0, 0, 0, 3, 0, 0}
	for id, v := range f.Row() {
		if v != want[id] {
			t.Fatalf("Row() = %v, want %v", f.Row(), want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Drain of a dense row: want a panic")
			}
		}()
		f.Drain()
	}()
	f.Reset()
	f.Add(6, 1)
	if f.Dense() {
		t.Fatal("Reset must return the row to the sparse regime")
	}
	sameBits(t, "next row", finished(t, f), map[uint32]float64{6: 1})
}

// TestAddCellsEqualsAdds pins the one kernel: for every store, AddCells
// leaves what the same stream of Add calls leaves, each product associated
// (w·weight)·factor — bit for bit. For Flat the drained (id, bits) multiset
// is compared, over rows that stay sparse and rows that turn dense in the
// middle of an AddCells call; both must occur.
// Factors are irrational-looking so a different association would round
// differently; one term in eight has factor 0. The four-wide dense kernel,
// addRow, gets fixed cases too, through both stores: every cell count 0–9
// in each of Flat's regimes and in a dense Store row, ids repeating inside
// a group of four, and calls whose switch to dense leaves each remainder
// mod 4 for the loop — and a Store row the same cells.
func TestAddCellsEqualsAdds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// flatCase feeds pre through Add to both Flats, then cells through one
	// AddCells and through one Add per cell, and compares the drained rows.
	flatCase := func(name string, n int, pre, cells []codec.Cell, wantDense bool) {
		t.Helper()
		flat, ref := NewFlat(n), NewFlat(n)
		w, factor := float64(1+r.Intn(60000)), math.Sqrt(r.Float64()*9)
		for _, c := range pre {
			flat.Add(c.Number, float64(c.Weight))
			ref.Add(c.Number, float64(c.Weight))
		}
		flat.AddCells(cells, w, factor)
		for _, c := range cells {
			ref.Add(c.Number, (w*float64(c.Weight))*factor)
		}
		if flat.Dense() != wantDense {
			t.Fatalf("%s: dense = %v, want %v", name, flat.Dense(), wantDense)
		}
		got, want := finished(t, flat), finished(t, ref)
		if len(got) != len(want) {
			t.Fatalf("%s: %d ids drained, Add leaves %d", name, len(got), len(want))
		}
		for id, bits := range want {
			if got[id] != bits {
				t.Fatalf("%s: id %d = %v, Add leaves %v", name, id, math.Float64frombits(got[id]), math.Float64frombits(bits))
			}
		}
	}
	// storeCase feeds cells to row 1 of a dense Store through one AddCells
	// and to row 0 through one Add per cell, and compares the rows.
	storeCase := func(name string, cells []codec.Cell) {
		t.Helper()
		const cols = 32
		s := New(2, cols, 2*cols*8)
		w, factor := float64(1+r.Intn(60000)), math.Sqrt(r.Float64()*9)
		s.AddCells(cells, 1, w, factor)
		for _, c := range cells {
			s.Add(0, c.Number, (w*float64(c.Weight))*factor)
		}
		if !s.Dense() {
			t.Fatalf("%s: store is %s, want dense", name, s.Kind())
		}
		got, want := s.Row(1), s.Row(0)
		for id := range want {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
				t.Fatalf("%s: id %d = %v, Add leaves %v", name, id, got[id], want[id])
			}
		}
	}
	cellsOf := func(ids []int) []codec.Cell {
		cells := make([]codec.Cell, len(ids))
		for i, id := range ids {
			cells[i] = codec.Cell{Number: uint32(id), Weight: uint16(1 + r.Intn(60000))}
		}
		return cells
	}
	for count := 0; count <= 9; count++ {
		ids := make([]int, count) // drawn with repeats
		for i := range ids {
			ids[i] = r.Intn(12)
		}
		storeCase(fmt.Sprintf("store, %d cells", count), cellsOf(ids))
		flatCase(fmt.Sprintf("sparse, %d cells", count), 64, nil, cellsOf(ids), false)                          // limit 16: stays listed
		flatCase(fmt.Sprintf("dense, %d cells", count), 16, cellsOf([]int{12, 13, 14, 15}), cellsOf(ids), true) // limit 4: dense before the call
	}
	// Limit 16; 15−k ids already listed, so the call's cell k is the 16th
	// listed id and the four-wide loop gets the 19−k cells after it.
	for k := 0; k < 8; k++ {
		fresh := cellsOf(r.Perm(32)[:20])
		pre := make([]codec.Cell, 0, 15-k)
		for id := 32; len(pre) < 15-k; id++ {
			pre = append(pre, codec.Cell{Number: uint32(id), Weight: 1})
		}
		storeCase(fmt.Sprintf("store, the %d cells after switch %d", 19-k, k), fresh[k+1:])
		flatCase(fmt.Sprintf("switch at cell %d", k), 64, pre, fresh, true)
	}

	regimes := map[bool]int{}
	check := func(seed int64, rows8, cols8 uint8) bool {
		rows, cols := int(rows8%20)+1, int(cols8%50)+1
		r := rand.New(rand.NewSource(seed))
		flat, flatRef := NewFlat(cols), NewFlat(cols)
		budget := int64(rows * cols * 8)
		stores := []struct{ got, want *Store }{
			{New(rows, cols, budget), New(rows, cols, budget)}, // dense from the start
			{New(rows, cols, 0), New(rows, cols, 0)},           // table, promoted if it outgrows the matrix
		}
		density := 1 + r.Intn(12) // one cell in density per term
		for term, terms := 0, r.Intn(60); term < terms; term++ {
			var cells []codec.Cell
			for n := 0; n < cols; n++ {
				if r.Intn(density) == 0 {
					cells = append(cells, codec.Cell{Number: uint32(n), Weight: uint16(1 + r.Intn(60000))})
				}
			}
			row, w, factor := r.Intn(rows), float64(1+r.Intn(60000)), math.Sqrt(r.Float64()*9)
			if r.Intn(8) == 0 {
				factor = 0
			}
			for _, c := range cells {
				flatRef.Add(c.Number, (w*float64(c.Weight))*factor)
				for _, st := range stores {
					st.want.Add(row, c.Number, (w*float64(c.Weight))*factor)
				}
			}
			flat.AddCells(cells, w, factor)
			for _, st := range stores {
				st.got.AddCells(cells, row, w, factor)
			}
		}
		regimes[flat.dense]++
		got, want := finished(t, flat), finished(t, flatRef)
		if len(got) != len(want) {
			t.Fatalf("flat: %d ids drained, Add leaves %d", len(got), len(want))
		}
		for id, bits := range want {
			if got[id] != bits {
				t.Fatalf("flat: id %d = %v, Add leaves %v", id, math.Float64frombits(got[id]), math.Float64frombits(bits))
			}
		}
		for _, st := range stores {
			got, want := collect(st.got.ForEach), collect(st.want.ForEach)
			if len(got) != len(want) || st.got.Len() != st.want.Len() {
				t.Fatalf("%s: %d pairs, Add leaves %d", st.got.Kind(), len(got), len(want))
			}
			for k, v := range want {
				if math.Float64bits(got[k]) != math.Float64bits(v) {
					t.Fatalf("%s: key %d = %v, Add leaves %v", st.got.Kind(), k, got[k], v)
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if regimes[false] == 0 || regimes[true] == 0 {
		t.Errorf("rows ended sparse %d times and dense %d times, want both", regimes[false], regimes[true])
	}
}

// TestFlatFirstTouchOrder pins the drain order, first touch, and that a
// dense row finished in place through Row and Reset leaves the next row
// sparse and draining in its own first-touch order.
func TestFlatFirstTouchOrder(t *testing.T) {
	f := NewFlat(16) // dense at the fourth listed id
	drain := func(want ...Sum) {
		t.Helper()
		got := f.Drain()
		if len(got) != len(want) {
			t.Fatalf("drained %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("drained %v, want %v", got, want)
			}
		}
	}
	f.Add(7, 1)
	f.Add(2, 1)
	f.Add(7, 2)
	f.Add(0, 5)
	drain(Sum{7, 3}, Sum{2, 1}, Sum{0, 5})
	for _, id := range []uint32{9, 4, 12, 3, 1} {
		f.Add(id, float64(id))
	}
	if !f.dense {
		t.Fatal("five ids of sixteen: want dense")
	}
	sameBits(t, "dense row", finished(t, f), map[uint32]float64{1: 1, 3: 3, 4: 4, 9: 9, 12: 12})
	f.Add(5, 1)
	f.Add(3, 2)
	if f.dense {
		t.Fatal("a Reset must return the row to the sparse regime")
	}
	drain(Sum{5, 1}, Sum{3, 2})
}

func TestTableGrowth(t *testing.T) {
	table := newTable()
	ref := make(mapRef)
	// Push far past several growth thresholds, including key 0.
	for row := 0; row < 40; row++ {
		for inner := uint32(0); inner < 40; inner++ {
			v := float64(row*40) + float64(inner) + 0.5
			table.put(row, inner, v)
			ref.add(row, inner, v)
		}
	}
	sameEntries(t, "table", collect(table.forEach), map[uint64]float64(ref))
	if table.n != 1600 {
		t.Fatalf("len = %d, want 1600", table.n)
	}
	if table.bytes() < 1600*16 {
		t.Fatalf("bytes = %d, too small for %d entries", table.bytes(), table.n)
	}
	// A reset keeps the slots and forgets the pairs.
	bytes := table.bytes()
	table.reset()
	if table.n != 0 || table.bytes() != bytes || len(collect(table.forEach)) != 0 {
		t.Fatalf("reset: %d pairs in %d bytes, want 0 in %d", table.n, table.bytes(), bytes)
	}
}

func TestNewChoosesByBudget(t *testing.T) {
	if kind := New(10, 10, 800).Kind(); kind != "dense" {
		t.Errorf("10x10 at 800 bytes: %s, want dense", kind)
	}
	if kind := New(10, 10, 799).Kind(); kind != "table" {
		t.Errorf("10x10 at 799 bytes: %s, want table", kind)
	}
	if !UseDense(0, 5, 1) {
		t.Error("zero rows should always fit")
	}
	// Large dimensions must not overflow the byte computation.
	if UseDense(1<<24, 1<<24, 1<<40) {
		t.Error("2^48 cells in 2^40 bytes: want sparse")
	}
}

// TestStoreKeepsWhatItPromotedInto walks the regimes of one store by hand:
// a table that would outgrow its 4×8 matrix moves into it at the growth
// it declines, later passes that fit the raised limit start dense in the
// same buffer, and one too large for it starts as the table again.
func TestStoreKeepsWhatItPromotedInto(t *testing.T) {
	s := New(4, 8, 0) // a 256-byte matrix: the 16-slot table may not double
	for inner := uint32(0); inner < 12; inner++ {
		s.Add(1, inner%8, 1)
		s.Add(2, inner%8, 1)
	}
	if s.Kind() != "promoted" || s.Bytes() != 4*8*8 || s.Len() != 16 {
		t.Fatalf("after 16 pairs: %s, %d bytes, %d pairs; want promoted, 256, 16", s.Kind(), s.Bytes(), s.Len())
	}
	if got := s.Row(1)[3]; got != 2 {
		t.Fatalf("(1, 3) = %v, want 2", got)
	}
	buf := &s.matrix[0]
	s.Reset(3)
	if s.Kind() != "dense" || &s.matrix[0] != buf || s.Len() != 0 || s.Bytes() != 4*8*8 {
		t.Fatalf("3-row pass: %s, %d pairs, %d bytes; want dense in the same 256-byte buffer, empty", s.Kind(), s.Len(), s.Bytes())
	}
	s.Reset(8) // 512 bytes: exactly the table size declined
	if s.Kind() != "dense" || s.Bytes() != 8*8*8 {
		t.Fatalf("8-row pass: %s in %d bytes, want dense in 512", s.Kind(), s.Bytes())
	}
	s.Reset(9)
	if s.Kind() != "table" || s.Bytes() != tableMinSize*16 {
		t.Fatalf("9-row pass: %s in %d bytes, want a fresh table", s.Kind(), s.Bytes())
	}
}

// TestStoreAllocatesOneMatrix runs VVM's passes on vvm_merge's shape, 1542
// outer documents in seven passes of 220 or 221 rows over 1542 columns.
// The first pass starts as the table and promotes; the matrix it promotes
// into has room for the largest pass, so every later pass starts dense in
// the same array and Bytes is the largest pass's matrix throughout. A store
// whose largest pass will not be dense leaves a smaller dense pass its own
// size.
func TestStoreAllocatesOneMatrix(t *testing.T) {
	const cols = 1542
	matrix := func(rows int) int64 { return int64(rows) * cols * 8 }
	s := New(0, cols, matrix(100))
	s.Reserve(221)
	var buf *float64
	for pass, rows := range []int{220, 221, 220, 220, 221, 220, 221} {
		s.Reset(rows)
		for row := 0; s.Kind() == "table"; row++ {
			for inner := uint32(0); inner < cols; inner++ {
				s.Add(row, inner, 1)
			}
		}
		want := "dense"
		if pass == 0 {
			want, buf = "promoted", &s.matrix[0]
		}
		if s.Kind() != want || &s.matrix[0] != buf || s.Bytes() != matrix(221) {
			t.Fatalf("pass %d (%d rows): %s, %d bytes, same array %v; want %s in the first array, %d bytes",
				pass, rows, s.Kind(), s.Bytes(), &s.matrix[0] == buf, want, matrix(221))
		}
	}

	s = New(0, cols, matrix(220))
	s.Reserve(221)
	s.Reset(220)
	if s.Kind() != "dense" || s.Bytes() != matrix(220) {
		t.Fatalf("220-row pass under a 220-row budget: %s in %d bytes, want dense in %d", s.Kind(), s.Bytes(), matrix(220))
	}
}

func TestIDSetContiguous(t *testing.T) {
	ids := []uint32{5, 6, 7, 8, 9}
	s := NewIDSet(ids)
	if !s.contiguous {
		t.Fatal("want contiguous representation")
	}
	checkIDSet(t, s, ids)
}

func TestIDSetBitmap(t *testing.T) {
	ids := []uint32{3, 4, 9, 64, 65, 130, 200}
	s := NewIDSet(ids)
	if s.words == nil {
		t.Fatal("want bitmap representation")
	}
	checkIDSet(t, s, ids)
}

func TestIDSetSparseFallback(t *testing.T) {
	ids := []uint32{1, 1000000, 9000000}
	s := NewIDSet(ids)
	if s.ids == nil {
		t.Fatal("want binary-search representation")
	}
	checkIDSet(t, s, ids)
}

func TestIDSetEmpty(t *testing.T) {
	s := NewIDSet(nil)
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("empty set misbehaves")
	}
}

// checkIDSet verifies Rank/Contains over the members, both neighbors of
// every member, and the extremes.
func checkIDSet(t *testing.T, s *IDSet, ids []uint32) {
	t.Helper()
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids))
	}
	member := make(map[uint32]int, len(ids))
	for rank, id := range ids {
		member[id] = rank
	}
	probe := func(id uint32) {
		rank, ok := s.Rank(id)
		wantRank, wantOK := member[id]
		if ok != wantOK || (ok && rank != wantRank) {
			t.Fatalf("Rank(%d) = %d,%v want %d,%v", id, rank, ok, wantRank, wantOK)
		}
	}
	for _, id := range ids {
		probe(id)
		if id > 0 {
			probe(id - 1)
		}
		probe(id + 1)
	}
	probe(0)
	probe(^uint32(0))
}

// TestIDSetQuick cross-checks all three representations against a map on
// random id sets.
func TestIDSetQuick(t *testing.T) {
	check := func(seed int64, span16 uint16, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		span := int(span16%5000) + 1
		n := int(n8)%span + 1
		picked := make(map[uint32]bool, n)
		for len(picked) < n {
			picked[uint32(r.Intn(span))] = true
		}
		ids := make([]uint32, 0, n)
		for id := range picked {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		s := NewIDSet(ids)
		for probe := 0; probe < 100; probe++ {
			id := uint32(r.Intn(span + 10))
			rank, ok := s.Rank(id)
			if ok != picked[id] {
				t.Fatalf("Contains(%d) = %v, want %v", id, ok, picked[id])
			}
			if ok && ids[rank] != id {
				t.Fatalf("Rank(%d) = %d, but ids[%d] = %d", id, rank, rank, ids[rank])
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAddRow times the one dense kernel, addRow, per cell, over as
// many ids as hvnl_probe's inner collection (6 171), through both callers:
// a Flat row past its n/4 limit and a dense Store row, each fed a term of
// 1 000 cells. flat-sparse is the listed path a Flat row takes before it
// turns dense: a term of 64 cells, which Reset clears after each call. All
// must allocate nothing.
//
//	go test -run '^$' -bench AddRow -benchmem ./internal/accum
func BenchmarkAddRow(b *testing.B) {
	const n = 6171
	r := rand.New(rand.NewSource(1))
	term := func(k int) []codec.Cell {
		ids := r.Perm(n)[:k]
		sort.Ints(ids)
		cells := make([]codec.Cell, k)
		for i, id := range ids {
			cells[i] = codec.Cell{Number: uint32(id), Weight: uint16(1 + r.Intn(8))}
		}
		return cells
	}
	flat := func(dense bool) func([]codec.Cell) {
		f := NewFlat(n)
		if dense {
			f.AddCells(term(n/4), 1, 1)
		}
		if f.Dense() != dense {
			b.Fatalf("dense = %v, want %v", f.Dense(), dense)
		}
		if dense {
			return func(cells []codec.Cell) { f.AddCells(cells, 3, 0.5) }
		}
		return func(cells []codec.Cell) { f.AddCells(cells, 3, 0.5); f.Reset() }
	}
	store := func() func([]codec.Cell) {
		s := New(1, n, n*8)
		if !s.Dense() {
			b.Fatalf("store is %s, want dense", s.Kind())
		}
		return func(cells []codec.Cell) { s.AddCells(cells, 0, 3, 0.5) }
	}
	for _, bc := range []struct {
		name  string
		cells int
		add   func([]codec.Cell)
	}{{"flat-sparse", 64, flat(false)}, {"flat-dense", 1000, flat(true)}, {"store-dense", 1000, store()}} {
		b.Run(bc.name, func(b *testing.B) {
			cells := term(bc.cells)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.add(cells)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/cell")
		})
	}
}
