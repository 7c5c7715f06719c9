package accum

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// aboveRef is Above by its definition, one slot at a time.
func aboveRef(row, bars []float64) []int32 {
	out := []int32{}
	for i, v := range row {
		bar := 0.0
		if bars != nil {
			bar = bars[i]
		}
		if v > bar {
			out = append(out, int32(i))
		}
	}
	return out
}

// FuzzAbove holds the candidate kernel — the vector body where the CPU has
// it — and the Go body to a per-slot reference, with the vector kernel on
// and off: rows of 0–70 slots, so every remainder modulo four is swept,
// with and without bars; zeros, values equal to their bar and bars of 0
// are common, and the rest spread over sixty binades. The row and bars
// sit at an offset that leaves the vector loads unaligned, and dst starts
// full of stale slots.
func FuzzAbove(f *testing.F) {
	for n := 0; n <= 70; n++ {
		f.Add(uint8(n), int64(n), n%3 != 0, uint8(n%5))
	}
	f.Fuzz(func(t *testing.T, n8 uint8, seed int64, barred bool, ties uint8) {
		n := int(n8 % 71)
		r := rand.New(rand.NewSource(seed))
		binade := func() float64 { return math.Ldexp(1+r.Float64(), r.Intn(60)-30) }
		off := r.Intn(4)
		row := make([]float64, off+n)[off:]
		var bars []float64
		if barred {
			bars = make([]float64, off+n)[off:]
		}
		for i := range row {
			if bars != nil && r.Intn(4) > 0 {
				bars[i] = binade()
			}
			switch r.Intn(int(ties%4) + 3) {
			case 0:
				row[i] = 0
			case 1:
				if bars != nil {
					row[i] = bars[i] // a tie, which is not above
				}
			default:
				row[i] = binade()
			}
		}
		want := aboveRef(row, bars)
		for _, on := range []bool{true, false} {
			was := setVector(on)
			dst := make([]int32, n+3)
			for i := range dst {
				dst[i] = -7
			}
			got := Above(dst[:r.Intn(n+4)], row, bars)
			setVector(was)
			if !slices.Equal(got, want) {
				t.Fatalf("n %d, bars %v, vector %v: %v, the reference %v", n, barred, on, got, want)
			}
			if n > 0 && len(got) > 0 && &got[0] != &dst[0] {
				t.Fatalf("n %d: a dst with room for the row was not reused", n)
			}
		}
		dst := make([]int32, n)
		if got := dst[:aboveGo(dst, row, bars, 0)]; !slices.Equal(got, want) {
			t.Fatalf("n %d, bars %v: the Go body %v, the reference %v", n, barred, got, want)
		}
	})
}

// TestAbove pins the strict test at its edges, with the vector kernel on
// and off: a value equal to its bar, a zero under a bar of 0 and under no
// bars, the last slot of a whole group and the tail, and a NaN.
func TestAbove(t *testing.T) {
	row := []float64{0, 1, 2, 2, 5, 0, 3, math.NaN(), 4}
	bars := []float64{0, 0, 2, 1, 5, 1, 2, 0, 3.5}
	for _, on := range []bool{true, false} {
		was := setVector(on)
		barred, zero := Above(nil, row, bars), Above(nil, row, nil)
		setVector(was)
		if want := []int32{1, 3, 6, 8}; !slices.Equal(barred, want) {
			t.Errorf("vector %v: above the bars %v, want %v", on, barred, want)
		}
		if want := []int32{1, 2, 3, 4, 6, 8}; !slices.Equal(zero, want) {
			t.Errorf("vector %v: above 0 %v, want %v", on, zero, want)
		}
	}
	if got := Above(make([]int32, 4), nil, nil); got == nil || len(got) != 0 {
		t.Errorf("an empty row lists %v, want an empty list", got)
	}
}
