package accum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"textjoin/internal/codec"
)

// FuzzAddColumnInt32 holds the int32 column kernel — the vector sweep
// where the CPU has it, and with the kernel turned off — to
// addColumnInt32Go, and both to the float path: the same column added by
// addColumnGo at factor 1 to the same sums held as float64 must leave,
// at every id whose sum stays below 2³¹, exactly the float64 of the int32
// sum. Lengths 0–70 sweep every tail modulo sixteen; the seeds hold
// weights 0 and 65535 and sums that end just under 2³¹ (base 2³¹ − 1:
// each id starts at base minus its product, or at 0 where the product is
// larger). An id past the column must stay as it was.
func FuzzAddColumnInt32(f *testing.F) {
	for n := 0; n <= 70; n++ {
		f.Add(uint8(n), []byte{0, 0, 1, 0, 0xff, 0xff, 7, 3}, uint16(n*937), uint32(n*101), int64(n))
	}
	f.Add(uint8(70), []byte{0xff, 0xff}, uint16(65535), uint32(1<<31-1), int64(1))
	f.Add(uint8(33), []byte{0xff, 0xff, 0, 0}, uint16(32768), uint32(1<<31-1), int64(2))
	f.Add(uint8(17), []byte{}, uint16(0), uint32(1<<31-1), int64(3))
	f.Add(uint8(16), []byte{1, 0}, uint16(65535), uint32(1<<32-1), int64(4))
	f.Fuzz(func(t *testing.T, n8 uint8, weights []byte, w uint16, base uint32, seed int64) {
		n := int(n8 % 71)
		r := rand.New(rand.NewSource(seed))
		col := make([]uint16, n)
		for i := range col {
			if len(weights) >= 2 {
				col[i] = uint16(weights[2*i%(len(weights)&^1)]) | uint16(weights[(2*i+1)%(len(weights)&^1)])<<8
			}
		}
		// Each id starts at base less its product, so that most sums end
		// at base, and the id past the column at base itself.
		start := make([]int32, n+1)
		for i := range start {
			sum := int64(base % (1 << 31))
			if i < n {
				sum -= int64(w) * int64(col[i])
			}
			start[i] = int32(max(0, sum-int64(r.Intn(2))))
		}
		want := slices.Clone(start)
		addColumnInt32Go(want[:n], col, w)
		floats := make([]float64, n+1)
		for i, v := range start {
			floats[i] = float64(v)
		}
		addColumnGo(floats[:n], col, float64(w), 1)
		for _, on := range []bool{true, false} {
			was := setVector(on)
			off := r.Intn(8)
			got := make([]int32, off+n+1)
			copy(got[off:], start)
			AddColumnInt32(got[off:off+n], col, w)
			setVector(was)
			for i, v := range want {
				if got[off+i] != v {
					t.Fatalf("kernel %v, n %d, w %d: id %d = %d, the reference %d", on, n, w, i, got[off+i], v)
				}
				if i == n || int64(start[i])+int64(w)*int64(col[i]) >= 1<<31 {
					continue // past the column, or a sum int32 cannot hold
				}
				if math.Float64bits(float64(v)) != math.Float64bits(floats[i]) {
					t.Fatalf("kernel %v, n %d, w %d: id %d = %d, the float path %v", on, n, w, i, v, floats[i])
				}
			}
		}
	})
}

// FuzzWiden holds the convert-and-clear pass — the vector kernel where
// the CPU has it, and with the kernel turned off — to widenGo, and the
// integer path it finishes to the float path: postings added through
// AddCellsInt32 into a twin and then widened into a row of stale values
// must leave exactly the sums AddCells leaves in a cleared float64 row,
// wherever every sum stays below 2³¹, and a cleared twin. Ids past the
// twin must stay as they were. Lengths 0–70 sweep every tail modulo
// sixteen; the seeds hold weights 0 and 65535 and sums just under 2³¹.
func FuzzWiden(f *testing.F) {
	for n := 0; n <= 70; n++ {
		f.Add(uint8(n), []byte{3, 1, 4, 1, 5, 9, 2, 6}, uint16(n*613), uint8(3), int64(n))
	}
	// 32 767 · 65 535 = 2³¹ − 32 769 in one product, just under 2³¹.
	f.Add(uint8(40), []byte{0xff, 0xff}, uint16(32767), uint8(1), int64(5))
	f.Add(uint8(64), []byte{0xff, 0xff}, uint16(65535), uint8(2), int64(6))
	f.Add(uint8(9), []byte{0, 0}, uint16(0), uint8(4), int64(7))
	f.Fuzz(func(t *testing.T, n8 uint8, weights []byte, w uint16, postings uint8, seed int64) {
		n := int(n8 % 71)
		r := rand.New(rand.NewSource(seed))
		twin := make([]int32, n)
		floats := make([]float64, n)
		exact := true
		sums := make([]int64, n)
		for p := 0; p < int(postings%5) && n > 0; p++ {
			var cells []codec.Cell
			for _, id := range r.Perm(n)[:1+r.Intn(n)] {
				var c uint16
				if len(weights) >= 2 {
					j := 2 * len(cells) % (len(weights) &^ 1)
					c = uint16(weights[j]) | uint16(weights[j+1])<<8
				}
				cells = append(cells, codec.Cell{Number: uint32(id), Weight: c})
				sums[id] += int64(w) * int64(c)
				exact = exact && sums[id] < 1<<31
			}
			AddCellsInt32(twin, cells, w)
			addRow(floats, cells, float64(w), 1)
		}
		want := make([]float64, n)
		widenGo(want, slices.Clone(twin))
		for _, on := range []bool{true, false} {
			was := setVector(on)
			off := r.Intn(8)
			row := make([]float64, off+n+1)
			for i := range row {
				row[i] = r.ExpFloat64()
			}
			stale := row[off+n]
			got := slices.Clone(twin)
			Widen(row[off:off+n], got)
			setVector(was)
			for i, v := range want {
				if math.Float64bits(row[off+i]) != math.Float64bits(v) {
					t.Fatalf("kernel %v, n %d: id %d = %v, the reference %v", on, n, i, row[off+i], v)
				}
				if exact && math.Float64bits(v) != math.Float64bits(floats[i]) {
					t.Fatalf("kernel %v, n %d: id %d = %v, the float path %v", on, n, i, v, floats[i])
				}
			}
			if row[off+n] != stale {
				t.Fatalf("kernel %v, n %d: the id past the twin became %v", on, n, row[off+n])
			}
			if slices.ContainsFunc(got, func(v int32) bool { return v != 0 }) {
				t.Fatalf("kernel %v, n %d: the twin was left %v", on, n, got)
			}
		}
	})
}

// TestExactGuard pins the guard: most·total < 2³¹ with the vector kernel,
// never without it.
func TestExactGuard(t *testing.T) {
	for _, c := range []struct {
		most  uint16
		total uint64
		want  bool
	}{{0, 1 << 40, true}, {1, 1<<31 - 1, true}, {1, 1 << 31, false}, {65535, 32768, true}, {65535, 32769, false}, {2, 1 << 30, false}} {
		if got := Exact(c.most, c.total); got != (c.want && vector) {
			t.Errorf("Exact(%d, %d) = %v, want %v with the vector kernel %v", c.most, c.total, got, c.want && vector, vector)
		}
	}
	was := setVector(false)
	defer setVector(was)
	if Exact(1, 1) {
		t.Error("Exact holds with the kernel turned off")
	}
}

// BenchmarkAddColumnInt32 is the int32 column kernel beside the float
// one, over the block joins' row of 343 resident slots and a full one
// of 1 543, in ns per id.
func BenchmarkAddColumnInt32(b *testing.B) {
	for _, n := range []int{343, 1543} {
		col := make([]uint16, n)
		for i := range col {
			col[i] = uint16(i % 5)
		}
		twin, row := make([]int32, n), make([]float64, n)
		for _, bc := range []struct {
			name string
			add  func()
		}{
			{"int32", func() { AddColumnInt32(twin, col, 3) }},
			{"float", func() { addColumn(row, col, 3, 1) }},
			{"widen", func() { Widen(row, twin) }},
		} {
			b.Run(fmt.Sprintf("%s-%d", bc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bc.add()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/id")
			})
		}
	}
}
