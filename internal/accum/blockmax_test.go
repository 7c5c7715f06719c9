package accum

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzBlockMaxima holds the block maxima kernel — the vector body where
// the CPU has it — to blockMaximaGo bit for bit, with and without a
// scale: rows of 0–70 ids, so every block count and short last block up
// to four whole blocks is swept, with zeros, repeated values and values
// over many binades, at an offset that leaves the vector loads unaligned.
// A block maximum past the row must stay as it was.
func FuzzBlockMaxima(f *testing.F) {
	for n := 0; n <= 70; n += 5 {
		f.Add(uint8(n), int64(n), true, uint8(3))
		f.Add(uint8(n+1), int64(n), false, uint8(0))
	}
	f.Add(uint8(16), int64(9), true, uint8(1))
	f.Add(uint8(47), int64(2), false, uint8(2))
	f.Fuzz(func(t *testing.T, n8 uint8, seed int64, scaled bool, zeros uint8) {
		n := int(n8 % 71)
		r := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			switch r.Intn(int(zeros%4) + 4) {
			case 0:
				return 0
			case 1:
				return 3 // a value repeated across the row
			}
			return math.Ldexp(r.Float64(), r.Intn(80)-40)
		}
		off := r.Intn(4)
		row := make([]float64, off+n)[off:]
		for i := range row {
			row[i] = draw()
		}
		var scale []float64
		if scaled {
			scale = make([]float64, off+n)[off:]
			for i := range scale {
				scale[i] = draw()
			}
		}
		nb := MaxBlocks(n)
		got, want := make([]float64, nb+1), make([]float64, nb+1)
		got[nb], want[nb] = -1, -1
		gotNZ := BlockMaxima(got[:nb], row, scale)
		wantNZ := blockMaximaGo(want[:nb], row, scale)
		if gotNZ != wantNZ {
			t.Fatalf("n %d: %d non-zero values, the reference counts %d", n, gotNZ, wantNZ)
		}
		for b := range want {
			if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
				t.Fatalf("n %d, scaled %v: block %d max %v, the reference %v", n, scaled, b, got[b], want[b])
			}
		}
	})
}

// TestBlockMaxima pins the reference against a per-id definition: each
// block's largest value or product, the short last block included, and
// the row's non-zero count, which counts values and not products.
func TestBlockMaxima(t *testing.T) {
	row := make([]float64, 37)
	scale := make([]float64, 37)
	for i := range row {
		row[i] = float64(i % 7)
		scale[i] = 1 / float64(1+i%5)
	}
	scale[36] = 0 // a zero inner norm's reciprocal
	for _, sc := range [][]float64{nil, scale} {
		for _, on := range []bool{true, false} {
			was := setVector(on)
			maxes := make([]float64, MaxBlocks(len(row)))
			nz := BlockMaxima(maxes, row, sc)
			setVector(was)
			want := 0
			for b := range maxes {
				m := 0.0
				for i := b * MaxBlock; i < min((b+1)*MaxBlock, len(row)); i++ {
					p := row[i]
					if p != 0 {
						want++
					}
					if sc != nil {
						p *= sc[i]
					}
					m = max(m, p)
				}
				if maxes[b] != m {
					t.Errorf("scaled %v, vector %v: block %d max %v, want %v", sc != nil, on, b, maxes[b], m)
				}
			}
			if nz != want {
				t.Errorf("scaled %v, vector %v: %d non-zero, want %d", sc != nil, on, nz, want)
			}
		}
	}
	if MaxBlocks(0) != 0 || MaxBlocks(16) != 1 || MaxBlocks(17) != 2 {
		t.Error("MaxBlocks is not ⌈n/16⌉")
	}
}
