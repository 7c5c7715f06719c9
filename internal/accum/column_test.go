package accum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"textjoin/internal/codec"
)

// FuzzAddColumn holds the column kernel — the vector sweep where the CPU
// has it — to addColumnGo bit for bit: lengths 0–70, so every tail modulo
// eight is swept; weights 0–65535; w ≥ 1; factors finite and
// non-negative, 0, 1 and idf²-like among the seeds; and a sum already in
// every id. An id past the column must stay as it was.
func FuzzAddColumn(f *testing.F) {
	idf := math.Log(6171.0 / 17)
	for n := 0; n <= 70; n += 7 {
		f.Add(uint8(n), []byte{0, 0, 1, 0, 0xff, 0xff, 7, 3}, uint16(1), 1.0, int64(n))
		f.Add(uint8(n+3), []byte("21"), uint16(1+n), 0.2+float64(n)/100, int64(n))
	}
	f.Add(uint8(70), []byte{9, 1, 0, 0, 44, 2}, uint16(3), 0.0, int64(2))
	f.Add(uint8(33), []byte{0xff, 0xff}, uint16(65535), idf*idf, int64(3))
	f.Add(uint8(5), []byte{}, uint16(12), 1/(idf*idf), int64(4))
	f.Fuzz(func(t *testing.T, n8 uint8, weights []byte, w16 uint16, factor float64, seed int64) {
		n := int(n8 % 71)
		factor = math.Abs(factor)
		if math.IsNaN(factor) || math.IsInf(factor, 0) {
			factor = 1
		}
		w := float64(max(1, w16))
		r := rand.New(rand.NewSource(seed))
		col := make([]uint16, n)
		for i := range col {
			if len(weights) >= 2 {
				col[i] = uint16(weights[2*i%(len(weights)&^1)]) | uint16(weights[(2*i+1)%(len(weights)&^1)])<<8
			}
		}
		// Both sweeps start from the same sums, one id past the column
		// included, at an offset that leaves the vector loads unaligned.
		off := r.Intn(4)
		got, want := make([]float64, off+n+1), make([]float64, n+1)
		for i := range want {
			if r.Intn(3) != 0 {
				want[i] = r.ExpFloat64() * 1e3
			}
		}
		copy(got[off:], want)
		addColumn(got[off:off+n], col, w, factor)
		addColumnGo(want[:n], col, w, factor)
		for i, v := range want {
			if math.Float64bits(got[off+i]) != math.Float64bits(v) {
				t.Fatalf("n %d, w %v, factor %v: id %d = %v, the reference leaves %v", n, w, factor, i, got[off+i], v)
			}
		}
	})
}

// TestColumnPredicate pins the rule: a posting is a column exactly when
// 4·df ≥ n and the vector kernel is present, and never with the hook off.
func TestColumnPredicate(t *testing.T) {
	for _, c := range []struct {
		df, n int
		want  bool
	}{{0, 0, true}, {1, 4, true}, {1, 5, false}, {2, 5, true}, {1542, 6171, false}, {1543, 6171, true}, {6171, 6171, true}} {
		if got := Columnar(c.df, c.n); got != (c.want && vector) {
			t.Errorf("Columnar(%d, %d) = %v, want %v with the vector kernel %v", c.df, c.n, got, c.want && vector, vector)
		}
	}
	was := setVector(false)
	defer setVector(was)
	if Columnar(10, 10) {
		t.Error("Columnar holds a posting as a column with the kernel turned off")
	}
	if was != codec.HaveVector() {
		t.Errorf("the kernel was %v before the hook, the CPU reports %v", was, codec.HaveVector())
	}
}

// postingOf draws k distinct ids below n, ascending, with weights 1–65535.
func postingOf(r *rand.Rand, n, k int) []codec.Cell {
	ids := r.Perm(n)[:k]
	sort.Ints(ids)
	cells := make([]codec.Cell, k)
	for i, id := range ids {
		cells[i] = codec.Cell{Number: uint32(id), Weight: uint16(1 + r.Intn(65535))}
	}
	return cells
}

// BenchmarkAddColumn is the column kernel beside BenchmarkAddRow: a
// Flat and a dense Store row over hvnl_probe's 6 171 inner ids, at
// postings of a quarter, half and all of them, in ns per product (a cell
// of the posting; the sweep covers every id either way). The scatter
// rows are AddCells of the same posting.
func BenchmarkAddColumn(b *testing.B) {
	const n = 6171
	r := rand.New(rand.NewSource(1))
	for _, k := range []int{n / 4, n / 2, n} {
		cells := postingOf(r, n, k)
		col := FillColumn(nil, cells, n)
		f := NewFlat(n)
		f.AddColumn(col, 1, 1)
		s := New(1, n, n*8)
		for _, bc := range []struct {
			name string
			add  func()
		}{
			{"flat-column", func() { f.AddColumn(col, 3, 0.5) }},
			{"flat-cells", func() { f.AddCells(cells, 3, 0.5) }},
			{"store-column", func() { s.AddColumn(col, 0, 3, 0.5) }},
			{"store-cells", func() { s.AddCells(cells, 0, 3, 0.5) }},
		} {
			b.Run(fmt.Sprintf("%s-df%d", bc.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bc.add()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/product")
			})
		}
	}
}
