package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestBasicKeepsBest(t *testing.T) {
	tk := New(2)
	tk.Offer(1, 5)
	tk.Offer(2, 9)
	tk.Offer(3, 7)
	tk.Offer(4, 1)
	got := tk.Results()
	if len(got) != 2 || got[0] != (Match{2, 9}) || got[1] != (Match{3, 7}) {
		t.Errorf("Results = %v", got)
	}
	if tk.K() != 2 {
		t.Errorf("K = %d", tk.K())
	}
}

func TestZeroSimilarityNeverKept(t *testing.T) {
	tk := New(3)
	if tk.Offer(1, 0) {
		t.Error("Offer(sim=0) kept")
	}
	if tk.Offer(2, -1) {
		t.Error("Offer(sim<0) kept")
	}
	if tk.Len() != 0 {
		t.Errorf("Len = %d", tk.Len())
	}
}

func TestFewerThanKCandidates(t *testing.T) {
	tk := New(10)
	tk.Offer(5, 3)
	tk.Offer(6, 8)
	got := tk.Results()
	if len(got) != 2 || got[0].Doc != 6 || got[1].Doc != 5 {
		t.Errorf("Results = %v", got)
	}
}

func TestTieBreakByDocID(t *testing.T) {
	tk := New(2)
	tk.Offer(9, 5)
	tk.Offer(3, 5)
	tk.Offer(7, 5)
	got := tk.Results()
	// All sims equal: keep the two smallest doc ids, ordered ascending.
	if len(got) != 2 || got[0] != (Match{3, 5}) || got[1] != (Match{7, 5}) {
		t.Errorf("Results = %v", got)
	}
}

// TestThreshold follows the bar by hand: 0 until the tracker is full, then
// the worst kept similarity — raised by every replacement — and 0 again
// after Reset.
func TestThreshold(t *testing.T) {
	tk := New(2)
	tk.Offer(1, 4)
	if tk.bar != 0 {
		t.Errorf("bar of a tracker holding 1 of 2 = %v, want 0", tk.bar)
	}
	tk.Offer(2, 6)
	if tk.bar != 4 {
		t.Errorf("bar when full = %v, want 4", tk.bar)
	}
	tk.Offer(3, 5) // replaces doc 1
	if tk.bar != 5 {
		t.Errorf("bar after replace = %v, want 5", tk.bar)
	}
	tk.Reset()
	if tk.bar != 0 {
		t.Errorf("bar after Reset = %v, want 0", tk.bar)
	}
}

// A tracker is one 32-byte object: a slice and the bar, with k its
// capacity. A 33rd byte moves every tracker into the 48-byte size class.
func TestTrackerIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(TopK{}); size != 32 {
		t.Errorf("TopK is %d bytes, want 32", size)
	}
}

func TestOfferReturnValue(t *testing.T) {
	tk := New(1)
	if !tk.Offer(1, 2) {
		t.Error("first Offer not kept")
	}
	if tk.Offer(2, 1) {
		t.Error("worse Offer kept")
	}
	if tk.Offer(2, 2) {
		t.Error("equal sim higher doc kept over incumbent")
	}
	if !tk.Offer(0, 2) {
		t.Error("equal sim lower doc should replace incumbent")
	}
	got := tk.Results()
	if got[0] != (Match{0, 2}) {
		t.Errorf("Results = %v", got)
	}
}

func TestReset(t *testing.T) {
	tk := New(2)
	tk.Offer(1, 1)
	tk.Reset()
	if tk.Len() != 0 {
		t.Errorf("Len after Reset = %d", tk.Len())
	}
	tk.Offer(2, 2)
	if got := tk.Results(); len(got) != 1 || got[0].Doc != 2 {
		t.Errorf("Results after Reset = %v", got)
	}
}

func TestLessOrdering(t *testing.T) {
	if !Less(Match{1, 5}, Match{2, 3}) {
		t.Error("higher sim should come first")
	}
	if !Less(Match{1, 5}, Match{2, 5}) {
		t.Error("equal sim: lower doc first")
	}
	if Less(Match{2, 5}, Match{2, 5}) {
		t.Error("Less(x, x) must be false")
	}
}

// referenceSelect is a brute-force top-k used to verify the tracker.
func referenceSelect(k int, candidates []Match) []Match {
	var pos []Match
	for _, m := range candidates {
		if m.Sim > 0 {
			pos = append(pos, m)
		}
	}
	sort.Slice(pos, func(i, j int) bool { return Less(pos[i], pos[j]) })
	if len(pos) > k {
		pos = pos[:k]
	}
	return pos
}

// Property: TopK matches a full sort-and-cut for any candidate stream —
// through one tracker reused across several streams with Reset between,
// as the joins reuse theirs. Integer similarities and a small document
// range make ties and repeated documents common; the stream lengths run
// from empty to many times k, so a Reset follows a full tracker.
func TestQuickAgainstReference(t *testing.T) {
	check := func(seed int64, kSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kSeed%20) + 1
		tk := New(k)
		for stream := 0; stream < 5; stream++ {
			tk.Reset()
			n := r.Intn(200)
			top := 1 + r.Intn(20) // later streams may sit wholly below an earlier bar
			candidates := make([]Match, 0, n)
			for i := 0; i < n; i++ {
				m := Match{Doc: uint32(r.Intn(50)), Sim: float64(r.Intn(top))}
				candidates = append(candidates, m)
				tk.Offer(m.Doc, m.Sim)
			}
			got := tk.Results()
			want := referenceSelect(k, candidates)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Select agrees with the incremental tracker.
func TestQuickSelect(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(10) + 1
		n := r.Intn(100)
		candidates := make([]Match, n)
		for i := range candidates {
			candidates[i] = Match{Doc: uint32(r.Intn(30)), Sim: float64(r.Intn(10)) - 1}
		}
		got := Select(k, candidates)
		want := referenceSelect(k, candidates)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: results are always sorted best-first and within capacity.
func TestQuickResultsSorted(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(8) + 1
		tk := New(k)
		for i := 0; i < 300; i++ {
			tk.Offer(uint32(r.Intn(100)), r.Float64()*10-1)
		}
		got := tk.Results()
		if len(got) > k {
			return false
		}
		for i := 1; i < len(got); i++ {
			if Less(got[i], got[i-1]) {
				return false
			}
		}
		for _, m := range got {
			if m.Sim <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Results allocates the slice it returns and nothing else: it runs once
// per outer document on the flush path of every join family.
func TestResultsAllocatesOnlyItsSlice(t *testing.T) {
	tk := New(20)
	for i := 0; i < 100; i++ {
		tk.Offer(uint32(i), float64(i%7+1))
	}
	if tk.Len() != tk.K() {
		t.Fatalf("tracker holds %d of %d", tk.Len(), tk.K())
	}
	if allocs := testing.AllocsPerRun(100, func() { tk.Results() }); allocs != 1 {
		t.Errorf("Results allocates %.0f objects, want 1", allocs)
	}
}

// Property: with distinct documents and heavily tied similarities — a
// join's case — Results, which no longer sorts, is the order sort.Slice
// over Less gives the kept matches.
func TestQuickResultsOrderUnderTies(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(30) + 1
		tk := New(k)
		for _, doc := range r.Perm(200) {
			tk.Offer(uint32(doc), float64(r.Intn(4)))
		}
		got := tk.Results()
		want := make([]Match, len(tk.kept))
		copy(want, tk.kept)
		sort.Slice(want, func(i, j int) bool { return Less(want[i], want[j]) })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
