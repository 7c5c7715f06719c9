package corpus

import (
	"math/rand"
	"testing"
)

// scripted is a rand.Source that returns first on its first call (unless
// it starts used) and then a splitmix64 stream from rest, counting the
// calls. Seeding rand.NewSource per checked draw would cost more than the
// draws.
type scripted struct {
	first int64
	used  bool
	rest  uint64
	calls int
}

func (s *scripted) Int63() int64 {
	s.calls++
	if !s.used {
		s.used = true
		return s.first
	}
	s.rest += 0x9e3779b97f4a7c15
	x := s.rest
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

func (s *scripted) Seed(int64) {}

// matchDraws draws n variates from rand.Zipf and from the sampler on two
// sources with the same seed, and fails on the first difference or when
// the sources end in different states.
func matchDraws(t *testing.T, seed int64, s float64, imax uint64, n int) *zipf {
	t.Helper()
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want, got := rand.NewZipf(ra, s, 1, imax), newZipf(rb, s, 1, imax)
	for i := range n {
		if a, b := want.Uint64(), got.next(); a != b {
			t.Fatalf("seed %d s %v imax %d: draw %d is %d, rand.Zipf drew %d", seed, s, imax, i, b, a)
		}
	}
	if a, b := ra.Int63(), rb.Int63(); a != b {
		t.Fatalf("seed %d s %v imax %d: next Int63 %d, rand.Zipf's source gives %d", seed, s, imax, b, a)
	}
	return got
}

// checkDraw holds the sampler to rand.Zipf on one first draw d, with the
// same stream behind it for any further iterations.
func checkDraw(t *testing.T, z *zipf, s float64, imax uint64, d int64) {
	t.Helper()
	ref := &scripted{first: d, rest: uint64(d)}
	want := rand.NewZipf(rand.New(ref), s, 1, imax).Uint64()
	own := &scripted{used: true, rest: uint64(d)}
	z.r = rand.New(own)
	got := z.fromDraw(d)
	if got != want || own.calls+1 != ref.calls {
		t.Fatalf("imax %d draw %#x: got %d after %d more draws, rand.Zipf %d after %d",
			imax, d, got, own.calls, want, ref.calls-1)
	}
	if b := d >> zipfShift; z.table[b] != 0 && ref.calls != 1 {
		t.Fatalf("imax %d draw %#x: bucket %d is resolved but rand.Zipf rejected its first iteration", imax, d, b)
	}
}

// TestZipfMatchesStdlib draws 10⁶ variates at the shapes generation uses
// (WSJ at divisors 1, 16 and 128, and a 400-term vocabulary) against
// rand.Zipf, then spot-checks every resolved bucket at its two end draws,
// one draw past each end and random draws inside.
func TestZipfMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i, p := range []Profile{WSJ, WSJ.Scaled(16), WSJ.Scaled(128), {TermsPerDoc: 20, DistinctTerms: 400}} {
		imax := uint64(p.DistinctTerms - 1)
		z := matchDraws(t, int64(i+1), p.zipfS(), imax, 1_000_000)
		resolved := 0
		for b, e := range z.table {
			if e == 0 {
				continue
			}
			resolved++
			lo := int64(b) << zipfShift
			hi := lo + 1<<zipfShift - 1
			for _, d := range []int64{lo, hi, lo + 1 + r.Int63n(hi-lo-1), lo + 1 + r.Int63n(hi-lo-1)} {
				checkDraw(t, z, p.zipfS(), imax, d)
			}
			if b > 0 {
				checkDraw(t, z, p.zipfS(), imax, lo-1)
			}
			if b+1 < len(z.table) {
				checkDraw(t, z, p.zipfS(), imax, hi+1)
			}
		}
		if resolved < len(z.table)/2 {
			t.Errorf("T = %d: only %d of %d buckets resolved", p.DistinctTerms, resolved, len(z.table))
		}
	}
	// The last bucket holds the draws Float64 rounds to 1 and redraws.
	z := newZipf(rand.New(rand.NewSource(1)), 1.2, 1, 999)
	checkDraw(t, z, 1.2, 999, 1<<63-1)
}

// FuzzZipfMatchesStdlib holds the sampler to rand.Zipf over seeds,
// vocabulary sizes and skews: the same variates, and the same source
// state after them.
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Add(int64(1), uint32(156298), uint16(200))
	f.Add(int64(7), uint32(39072), uint16(200))
	f.Add(int64(3), uint32(400), uint16(1))
	f.Add(int64(-5), uint32(1), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, terms uint32, skew uint16) {
		// T in [1, 2²⁴], s in [1.01, 4.01]: the profiles' ranges.
		imax := uint64(terms % (1 << 24))
		s := 1.01 + 3*float64(skew)/65535
		matchDraws(t, seed, s, imax, 2000)
	})
}
