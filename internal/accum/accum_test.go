package accum

import (
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

// collect drains an Accumulator into comparable form.
func collect(a Accumulator) map[uint64]float64 {
	out := make(map[uint64]float64)
	a.ForEach(func(row int, inner uint32, v float64) {
		out[uint64(row)<<32|uint64(inner)] = v
	})
	return out
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

// TestAccumulatorEquivalence drives Dense and Table with identical random
// add sequences and checks both match the map semantics bit-for-bit —
// including per-key float sums, which must accumulate in arrival order.
func TestAccumulatorEquivalence(t *testing.T) {
	check := func(seed int64, rows8, cols8 uint8) bool {
		rows := int(rows8%30) + 1
		cols := int(cols8%50) + 1
		r := rand.New(rand.NewSource(seed))
		dense := NewDense(rows, cols)
		table := NewTable(0)
		ref := make(mapRef)
		for i, n := 0, r.Intn(500); i < n; i++ {
			row := r.Intn(rows)
			inner := uint32(r.Intn(cols))
			v := float64(r.Intn(50)+1) * float64(r.Intn(50)+1) * (r.Float64() + 0.5)
			dense.Add(row, inner, v)
			table.Add(row, inner, v)
			ref.add(row, inner, v)
		}
		sameEntries(t, "dense", collect(dense), map[uint64]float64(ref))
		sameEntries(t, "table", collect(table), map[uint64]float64(ref))
		if dense.Len() != len(ref) || table.Len() != len(ref) {
			t.Fatalf("len: dense %d table %d want %d", dense.Len(), table.Len(), len(ref))
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFlatEquivalence checks the HVNL per-document accumulator against map
// semantics across Reset cycles (one cycle per outer document).
func TestFlatEquivalence(t *testing.T) {
	check := func(seed int64, n8 uint8) bool {
		n := int(n8%60) + 1
		r := rand.New(rand.NewSource(seed))
		f := NewFlat(n)
		for cycle := 0; cycle < 3; cycle++ {
			ref := make(map[uint32]float64)
			for i, adds := 0, r.Intn(200); i < adds; i++ {
				id := uint32(r.Intn(n))
				v := float64(r.Intn(100)+1) * r.Float64()
				f.Add(id, v)
				ref[id] += v
			}
			got := make(map[uint32]float64)
			for _, id := range f.Touched() {
				got[id] = f.Take(id)
			}
			if len(got) != len(ref) || f.Len() != len(ref) {
				t.Fatalf("cycle %d: %d touched, want %d", cycle, f.Len(), len(ref))
			}
			for id, v := range ref {
				if got[id] != v {
					t.Fatalf("cycle %d: id %d = %v, want %v", cycle, id, got[id], v)
				}
			}
			f.Reset()
			if f.Len() != 0 {
				t.Fatal("reset left touched entries")
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAddCellsEqualsAdds pins the one kernel: for every store, AddCells
// leaves what the same stream of Add calls leaves, each product associated
// (w·weight)·factor — bit for bit, touched order included. Factors are
// irrational-looking so a different association would round differently;
// one term in eight has factor 0.
func TestAddCellsEqualsAdds(t *testing.T) {
	check := func(seed int64, rows8, cols8 uint8) bool {
		rows, cols := int(rows8%20)+1, int(cols8%50)+1
		r := rand.New(rand.NewSource(seed))
		const lo = 7 // Flat's ids are cell numbers less lo
		flat, flatRef := NewFlat(cols), NewFlat(cols)
		stores := []struct{ got, want Accumulator }{
			{NewDense(rows, cols), NewDense(rows, cols)},
			{NewTable(0), NewTable(0)},
		}
		for term, terms := 0, r.Intn(60); term < terms; term++ {
			var cells []codec.Cell
			for n := 0; n < cols; n++ {
				if r.Intn(3) == 0 {
					cells = append(cells, codec.Cell{Number: uint32(n), Weight: uint16(1 + r.Intn(60000))})
				}
			}
			row, w, factor := r.Intn(rows), float64(1+r.Intn(60000)), math.Sqrt(r.Float64()*9)
			if r.Intn(8) == 0 {
				factor = 0
			}
			shifted := make([]codec.Cell, len(cells))
			for i, c := range cells {
				shifted[i] = codec.Cell{Number: c.Number + lo, Weight: c.Weight}
				flatRef.Add(c.Number, (w*float64(c.Weight))*factor)
				for _, st := range stores {
					st.want.Add(row, c.Number, (w*float64(c.Weight))*factor)
				}
			}
			flat.AddCells(shifted, lo, w, factor)
			for _, st := range stores {
				st.got.AddCells(cells, row, w, factor)
			}
		}
		if len(flat.Touched()) != len(flatRef.Touched()) {
			t.Fatalf("flat: %d touched, Add touches %d", flat.Len(), flatRef.Len())
		}
		for i, id := range flatRef.Touched() {
			if got := flat.Touched()[i]; got != id || math.Float64bits(flat.vals[id]) != math.Float64bits(flatRef.vals[id]) {
				t.Fatalf("flat: touch %d is id %d = %v, Add leaves id %d = %v", i, got, flat.vals[got], id, flatRef.vals[id])
			}
		}
		for _, st := range stores {
			got, want := collect(st.got), collect(st.want)
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
}

func TestFlatFirstTouchOrder(t *testing.T) {
	f := NewFlat(10)
	f.Add(7, 1)
	f.Add(2, 1)
	f.Add(7, 2)
	f.Add(0, 5)
	order := f.Touched()
	want := []uint32{7, 2, 0}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if f.vals[7] != 3 {
		t.Fatalf("vals[7] = %v, want 3", f.vals[7])
	}
}

func TestTableGrowth(t *testing.T) {
	table := NewTable(0)
	ref := make(mapRef)
	// Push far past several growth thresholds, including key 0.
	for row := 0; row < 40; row++ {
		for inner := uint32(0); inner < 40; inner++ {
			v := float64(row*40) + float64(inner) + 0.5
			table.Add(row, inner, v)
			ref.add(row, inner, v)
		}
	}
	sameEntries(t, "table", collect(table), map[uint64]float64(ref))
	if table.Len() != 1600 {
		t.Fatalf("len = %d, want 1600", table.Len())
	}
	if table.Bytes() < 1600*16 {
		t.Fatalf("bytes = %d, too small for %d entries", table.Bytes(), table.Len())
	}
}

func TestNewChoosesByBudget(t *testing.T) {
	if _, ok := New(10, 10, 800).(*Dense); !ok {
		t.Error("10x10 at 800 bytes: want Dense")
	}
	if _, ok := New(10, 10, 799).(*Table); !ok {
		t.Error("10x10 at 799 bytes: want Table")
	}
	if !UseDense(0, 5, 1) {
		t.Error("zero rows should always fit")
	}
	// Large dimensions must not overflow the byte computation.
	if UseDense(1<<24, 1<<24, 1<<40) {
		t.Error("2^48 cells in 2^40 bytes: want sparse")
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
