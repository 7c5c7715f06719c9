package corpus

import (
	"math"
	"math/rand"
)

// zipf draws exactly the variates math/rand's Zipf draws from the same
// *rand.Rand, leaving the source in the same state, at a fraction of the
// cost.
//
// The sampler is a copy of rand.Zipf (W. Hörmann and G. Derflinger's
// rejection-inversion; math/rand/zipf.go, Copyright The Go Authors,
// BSD-style licence): the constants are computed by the same expressions
// as rand.NewZipf, and exact runs the same loop as rand.Zipf.Uint64. Go 1
// froze math/rand's value stream, so the copy stays in step with the
// original; FuzzZipfMatchesStdlib holds it there.
//
// In front of the copy sits a table over the top zipfBits bits of the
// first iteration's Int63 draw. From the draw to k every step is monotone:
// r = draw/2⁶³, ur = hxm + r·(hx0−hxm) (decreasing in r), x = hinv(ur)
// (increasing in ur), k = ⌊x + ½⌋, and both acceptance tests pass for
// every ur above a threshold. So if the two end draws of a bucket give the
// same k with x well inside (k−½, k+½) and an acceptance test passed, every
// draw between them gives that k on the first iteration too. "Well" is
// zipfMargin, relative: math.Exp and math.Log are accurate to about an ulp
// but are not promised monotone, and a margin of 10⁻⁹ dwarfs that. A draw
// in any other bucket runs the exact loop on that same draw.
type zipf struct {
	r            *rand.Rand
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	// table[b] is k+1 when every draw in bucket b gives k on the first
	// iteration, and 0 when the bucket is left to the exact loop.
	table []uint32
}

const (
	// zipfBits sizes the table: 8192 buckets, built eagerly with one
	// evaluation per bucket boundary (≈ 0.45 ms on a 2-vCPU box). At WSJ/16
	// they leave ≈ 23 % of draws, nearly all in the tail, to the exact
	// loop, against ≈ 28 % with 4096; 16384 buckets gained no more than
	// their ≈ 1 ms build costs the smallest collections (≈ 2·10⁴ draws at
	// WSJ/128), which touch nearly every bucket anyway.
	zipfBits  = 13
	zipfShift = 63 - zipfBits
	// zipfMargin is the relative distance a bucket end must keep from the
	// rounding boundaries k ± ½ and from the acceptance thresholds.
	zipfMargin = 1e-9
)

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// newZipf is rand.NewZipf(r, s, v, imax) plus the bucket table. It
// requires s > 1 and v >= 1, as rand.NewZipf does.
func newZipf(r *rand.Rand, s float64, v float64, imax uint64) *zipf {
	z := new(zipf)
	z.r = r
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	// Boundary j is the first draw of bucket j; bucket b spans boundaries
	// b and b+1. The last bucket stays exact: its draws may round to
	// r = 1, which Float64 rejects and redraws.
	z.table = make([]uint32, 1<<zipfBits)
	prevK, prevOK := z.firstAccept(0)
	for b := range len(z.table) - 1 {
		k, ok := z.firstAccept(int64(b+1) << zipfShift)
		if ok && prevOK && k == prevK && k < math.MaxUint32 {
			z.table[b] = uint32(k) + 1
		}
		prevK, prevOK = k, ok
	}
	return z
}

// next is rand.Zipf.Uint64.
func (z *zipf) next() uint64 {
	return z.fromDraw(z.r.Int63())
}

// fromDraw finishes the variate whose first Int63 draw is d.
func (z *zipf) fromDraw(d int64) uint64 {
	if e := z.table[d>>zipfShift]; e != 0 {
		return uint64(e - 1)
	}
	return z.exact(d)
}

// exact is rand.Zipf.Uint64's loop, its first r taken from the draw d
// exactly as rand.Float64 takes it from an Int63.
func (z *zipf) exact(d int64) uint64 {
	r := float64(d) / (1 << 63)
	for r == 1 {
		r = float64(z.r.Int63()) / (1 << 63)
	}
	k := 0.0
	for {
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
		r = z.r.Float64()
	}
	return uint64(k)
}

// firstAccept reports the k the first iteration gives for draw d, and
// whether it does so with zipfMargin to spare: x is that far inside
// (k−½, k+½) and one acceptance test passes by it. Every comparison is
// written so that a NaN fails it.
func (z *zipf) firstAccept(d int64) (uint64, bool) {
	r := float64(d) / (1 << 63)
	if !(r < 1) {
		return 0, false
	}
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	m := zipfMargin * math.Max(1, math.Abs(x))
	if !(x-(k-0.5) >= m && (k+0.5)-x >= m && k >= 0) {
		return 0, false
	}
	if k-x <= z.s-m {
		return uint64(k), true
	}
	c := z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
	if ur-c >= zipfMargin*math.Abs(c) {
		return uint64(k), true
	}
	return 0, false
}
