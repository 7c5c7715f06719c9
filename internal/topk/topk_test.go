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
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
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
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
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
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
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
		sims, docs := split(tk.slot[:cap(tk.slot)])
		want := make([]Match, tk.Len())
		for i := range want {
			want[i] = Match{Doc: docs[i], Sim: sims[i]}
		}
		sort.Slice(want, func(i, j int) bool { return Less(want[i], want[j]) })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// FuzzBlockMatchesTopK holds the slab to the single tracker: a Block and a
// TopK per slot take the same stream of Resets — to a random slot count,
// shrinking and growing the slab — and offers, whose small integer
// similarities make ties at the bar common and include zeros and
// negatives. Every Offer must answer as its slot's TopK's does, every bar
// must equal its TopK's, Entries must count the Offers that kept their
// candidate since the last Reset, and before each Reset and at the end every slot's
// flushed row must be its TopK's Results, which must be a sort-and-cut of
// the slot's offers. The sort-and-cut catches a fault in the insert
// routine the two trackers share. Among the seeds are ties arriving by
// falling document, the order of VVM's table drain, and by rising
// document, the block joins' order, so the tie walk is held to the
// reference in both.
//
// Each byte of ops is an op: 0xf0 and above resets to the next byte mod 40
// slots; any other is an offer to slot op mod n of document (next byte) mod
// 32 at similarity (byte after) mod 9 − 2.
func FuzzBlockMatchesTopK(f *testing.F) {
	f.Add(uint8(2), []byte{0xf0, 3, 0, 1, 5, 1, 2, 5, 2, 3, 5, 0, 4, 5, 0, 0, 2, 0xf1, 1, 0, 9, 8})
	f.Add(uint8(0), []byte{0xff, 5, 4, 7, 2, 4, 3, 2, 4, 2, 2, 4, 1, 0, 0xf0, 39, 38, 1, 1})
	f.Add(uint8(7), []byte{0xf2, 0, 1, 2, 3, 0xf3, 2, 1, 2, 10})
	f.Add(uint8(0), []byte{0xf0, 2, 0, 1, 8, 0xf0, 2, 0, 2, 3}) // a full slot, Reset, then a lower offer
	f.Add(uint8(1), []byte{0xf0, 1, 0, 5, 7, 0, 3, 7, 0, 1, 7}) // ties arriving by falling document
	// Falling documents over mixed similarities, which a tie walk testing
	// the document alone would misplace.
	f.Add(uint8(2), []byte{0xf0, 1, 0, 9, 8, 0, 7, 6, 0, 2, 7, 0, 1, 7})
	// Integer ties arriving by rising document, the block joins' order:
	// into a full slot at its bar, above it, and among equal kept ones.
	f.Add(uint8(1), []byte{0xf0, 1, 0, 1, 7, 0, 3, 7, 0, 5, 7, 0, 6, 8, 0, 9, 8})
	f.Add(uint8(2), []byte{0xf0, 2, 0, 0, 5, 1, 1, 4, 0, 2, 5, 1, 3, 4, 0, 4, 6, 1, 5, 4, 0, 7, 5, 1, 8, 6, 0, 9, 5})
	f.Add(uint8(4), []byte{0xf0, 1, 0, 2, 4, 0, 3, 4, 0, 4, 5, 0, 5, 4, 0, 8, 5, 0, 9, 4, 0, 11, 5, 0, 12, 4, 0, 20, 6})
	f.Fuzz(func(t *testing.T, kSeed uint8, ops []byte) {
		k := int(kSeed%8) + 1
		var blk Block
		var slab []Match
		var tks []*TopK
		var offered [][]Match // each slot's candidates since its Reset
		var entries int64     // Offers that kept their candidate since Reset
		same := func(got, want []Match) bool {
			if got == nil || len(got) != len(want) || cap(got) != len(got) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		check := func() {
			n := 0
			blk.Flush(len(tks), func(slot int, kept []Match) {
				n++
				want := tks[slot].Results()
				if ref := referenceSelect(k, offered[slot]); !same(want, ref) {
					t.Fatalf("k=%d slot %d: TopK %v, sort-and-cut %v", k, slot, want, ref)
				}
				if !same(kept, want) {
					t.Fatalf("k=%d slot %d: flushed %v (cap %d), TopK %v", k, slot, kept, cap(kept), want)
				}
			})
			if n != len(tks) {
				t.Fatalf("k=%d: Flush emitted %d of %d slots", k, n, len(tks))
			}
		}
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			if op >= 0xf0 {
				check()
				n := 0
				if i+1 < len(ops) {
					i++
					n = int(ops[i] % 40)
				}
				slab = blk.Reset(n, k, slab)
				tks, offered, entries = tks[:0], offered[:0], 0
				for len(tks) < n {
					tks, offered = append(tks, New(k)), append(offered, nil)
				}
				if len(blk.Bars()) != n {
					t.Fatalf("Reset(%d): %d bars", n, len(blk.Bars()))
				}
				continue
			}
			if len(tks) == 0 || i+2 >= len(ops) {
				continue
			}
			slot := int(op) % len(tks)
			doc, sim := uint32(ops[i+1]%32), float64(int(ops[i+2]%9)-2)
			i += 2
			offered[slot] = append(offered[slot], Match{Doc: doc, Sim: sim})
			got, want := blk.Offer(slot, doc, sim), tks[slot].Offer(doc, sim)
			if got != want {
				t.Fatalf("k=%d slot %d: Offer(%d, %v) = %v, TopK %v", k, slot, doc, sim, got, want)
			}
			if got {
				entries++
			}
			if blk.Entries() != entries {
				t.Fatalf("k=%d: %d entries counted, %d Offers kept their candidate", k, blk.Entries(), entries)
			}
			if bar := blk.Bars()[slot]; bar != tks[slot].Bar() {
				t.Fatalf("k=%d slot %d: bar %v, TopK %v", k, slot, bar, tks[slot].Bar())
			}
		}
		check()
	})
}

// A round of a block — Reset, offers, Flush — allocates nothing once the
// slab holds its slots, however many there are: the row set a served join
// reuses takes one round per join. The rows a Flush hands out alias the
// slab and hold their matches until it serves another round.
func TestBlockRoundAllocatesNothing(t *testing.T) {
	var blk Block
	var slab []Match
	var rows [][]Match
	round := func(bonus float64) {
		slab = blk.Reset(50, 4, slab)
		for slot := 0; slot < 50; slot++ {
			for doc := uint32(0); doc < uint32(slot%7); doc++ {
				blk.Offer(slot, doc, float64(doc+1)+bonus)
			}
		}
		rows = rows[:0]
		blk.Flush(50, func(slot int, kept []Match) { rows = append(rows, kept) })
	}
	round(0)
	if allocs := testing.AllocsPerRun(100, func() { round(10) }); allocs != 0 {
		t.Errorf("a round of 50 slots allocates %.0f objects, want 0", allocs)
	}
	for slot, kept := range rows {
		want := min(slot%7, 4)
		if kept == nil || len(kept) != want || cap(kept) != want {
			t.Fatalf("slot %d: flushed %v (cap %d), want %d matches", slot, kept, cap(kept), want)
		}
		for i, m := range kept {
			if w := (Match{Doc: uint32(slot%7 - 1 - i), Sim: float64(slot%7-i) + 10}); m != w {
				t.Fatalf("slot %d: %v, want %v at %d", slot, kept, w, i)
			}
		}
	}
}

// TestFlushIsIdempotentAtLargeLambda: a slot of λ = 1 000 — a served
// join's λ = N1 request — is unpacked through the block's own scratch,
// however large λ is, and a second Flush hands out the same rows, each a
// sort-and-cut of its slot's offers, without unpacking them again. A
// warm round of Reset, offers and two Flushes allocates nothing.
func TestFlushIsIdempotentAtLargeLambda(t *testing.T) {
	const n, k = 3, 1000
	r := rand.New(rand.NewSource(1))
	var blk Block
	var slab []Match
	offered := make([][]Match, n)
	for slot := range offered {
		for _, doc := range r.Perm(1500) {
			offered[slot] = append(offered[slot], Match{Doc: uint32(doc), Sim: float64(r.Intn(40))})
		}
	}
	var rows [2][][]Match
	round := func() {
		slab = blk.Reset(n, k, slab)
		for slot, ms := range offered {
			for _, m := range ms {
				blk.Offer(slot, m.Doc, m.Sim)
			}
		}
		for i := range rows {
			rows[i] = rows[i][:0]
			blk.Flush(n, func(_ int, kept []Match) { rows[i] = append(rows[i], kept) })
		}
	}
	round()
	for slot := range offered {
		want := referenceSelect(k, offered[slot])
		for i := range rows {
			if got := rows[i][slot]; len(got) != len(want) || cap(got) != len(got) {
				t.Fatalf("flush %d, slot %d: %d matches (cap %d), want %d", i+1, slot, len(got), cap(got), len(want))
			}
			for j, m := range want {
				if rows[i][slot][j] != m {
					t.Fatalf("flush %d, slot %d: match %d is %v, want %v", i+1, slot, j, rows[i][slot][j], m)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("a warm round at λ = %d allocates %.0f objects, want 0", k, allocs)
	}
}
