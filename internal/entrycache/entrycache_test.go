package entrycache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/codec"
	"textjoin/internal/invfile"
)

func entry(term uint32, df int) *invfile.Entry {
	cells := make([]codec.Cell, df)
	for i := range cells {
		cells[i] = codec.Cell{Number: uint32(i), Weight: 1}
	}
	return &invfile.Entry{Term: term, Cells: cells}
}

func TestPolicyString(t *testing.T) {
	if MinOuterDF.String() != "min-outer-df" || LRU.String() != "lru" {
		t.Error("policy names wrong")
	}
	if Policy(7).String() == "" {
		t.Error("unknown policy name empty")
	}
}

func TestNewPanicsWithoutPriority(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(MinOuterDF, nil) did not panic")
		}
	}()
	New(100, MinOuterDF, nil)
}

func TestGetMissAndHit(t *testing.T) {
	c := New(100, LRU, nil)
	if _, ok := c.Get(1); ok {
		t.Error("hit on empty cache")
	}
	c.Put(1, entry(1, 2), 10)
	e, ok := c.Get(1)
	if !ok || e.Term != 1 {
		t.Errorf("Get = %+v, %v", e, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

func TestBudgetAccounting(t *testing.T) {
	c := New(100, LRU, nil)
	c.Put(1, entry(1, 1), 40)
	c.Put(2, entry(2, 1), 40)
	if c.Used() != 80 || c.Len() != 2 || c.Budget() != 100 {
		t.Errorf("used=%d len=%d budget=%d", c.Used(), c.Len(), c.Budget())
	}
	evicted := c.Put(3, entry(3, 1), 40) // must evict one
	if len(evicted) != 1 || c.Used() != 80 || c.Len() != 2 {
		t.Errorf("evicted=%v used=%d len=%d", evicted, c.Used(), c.Len())
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(50, LRU, nil)
	c.Put(1, entry(1, 1), 10)
	if evicted := c.Put(2, entry(2, 1), 60); evicted != nil {
		t.Errorf("evicted = %v, want none", evicted)
	}
	if c.Contains(2) {
		t.Error("oversized entry cached")
	}
	if !c.Contains(1) {
		t.Error("existing entry dropped by rejected insert")
	}
	if c.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d", c.Stats().Rejected)
	}
}

func TestMinOuterDFEviction(t *testing.T) {
	df := map[uint32]int64{1: 10, 2: 3, 3: 7, 4: 99}
	c := New(30, MinOuterDF, func(t uint32) int64 { return df[t] })
	c.Put(1, entry(1, 1), 10)
	c.Put(2, entry(2, 1), 10)
	c.Put(3, entry(3, 1), 10)
	// Cache full. Inserting term 4 must evict term 2 (lowest outer df).
	evicted := c.Put(4, entry(4, 1), 10)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Errorf("evicted = %v, want [2]", evicted)
	}
	// Next insert evicts term 3 (df 7 < 10 < 99).
	evicted = c.Put(5, entry(5, 1), 10)
	if len(evicted) != 1 || evicted[0] != 3 {
		t.Errorf("evicted = %v, want [3]", evicted)
	}
}

func TestMinOuterDFTieBreak(t *testing.T) {
	c := New(20, MinOuterDF, func(uint32) int64 { return 5 })
	c.Put(9, entry(9, 1), 10)
	c.Put(4, entry(4, 1), 10)
	evicted := c.Put(1, entry(1, 1), 10)
	if len(evicted) != 1 || evicted[0] != 4 {
		t.Errorf("evicted = %v, want [4] (lowest term on tie)", evicted)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(30, LRU, nil)
	c.Put(1, entry(1, 1), 10)
	c.Put(2, entry(2, 1), 10)
	c.Put(3, entry(3, 1), 10)
	c.Get(1) // refresh 1; LRU victim becomes 2
	evicted := c.Put(4, entry(4, 1), 10)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Errorf("evicted = %v, want [2]", evicted)
	}
	if !c.Contains(1) || !c.Contains(3) || !c.Contains(4) {
		t.Error("wrong survivors")
	}
}

func TestMultipleEvictionsForLargeEntry(t *testing.T) {
	c := New(30, LRU, nil)
	c.Put(1, entry(1, 1), 10)
	c.Put(2, entry(2, 1), 10)
	c.Put(3, entry(3, 1), 10)
	evicted := c.Put(4, entry(4, 1), 25)
	if len(evicted) != 3 {
		t.Errorf("evicted = %v, want all three", evicted)
	}
	if c.Used() != 25 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
	if c.Stats().Evictions != 3 {
		t.Errorf("Evictions = %d", c.Stats().Evictions)
	}
}

func TestReinsertReplaces(t *testing.T) {
	c := New(100, LRU, nil)
	c.Put(1, entry(1, 1), 30)
	c.Put(1, entry(1, 2), 50)
	if c.Used() != 50 || c.Len() != 1 {
		t.Errorf("used=%d len=%d after reinsert", c.Used(), c.Len())
	}
	e, _ := c.Get(1)
	if e.DocFreq() != 2 {
		t.Errorf("stale entry returned: df=%d", e.DocFreq())
	}
}

func TestRemove(t *testing.T) {
	c := New(100, LRU, nil)
	c.Put(1, entry(1, 1), 30)
	c.Remove(1)
	c.Remove(1) // no-op
	if c.Len() != 0 || c.Used() != 0 || c.Contains(1) {
		t.Error("Remove did not clear entry")
	}
}

// TestRecycleHandsOutEvictedEntries pins the storage half of the cache:
// Spare hands out the entries eviction released, last first, then fresh
// ones; and once the cache has held as many entries as it holds, a miss's
// Spare and Put of a reserved term allocate nothing.
func TestRecycleHandsOutEvictedEntries(t *testing.T) {
	c := New(30, LRU, nil)
	a, b := entry(1, 4), entry(2, 4)
	c.Put(1, a, 10)
	c.Put(2, b, 10)
	c.Put(3, entry(3, 4), 10)
	c.Put(4, entry(4, 4), 20) // evicts 1, then 2
	if got := c.Spare(); got != b {
		t.Errorf("Spare = %p, want %p (b, evicted last)", got, b)
	}
	if got := c.Spare(); got != a {
		t.Errorf("second Spare = %p, want %p (a)", got, a)
	}
	if got := c.Spare(); got == a || got == b {
		t.Errorf("third Spare = %p, want a fresh entry once the free list is empty", got)
	}
	term := uint32(10)
	c.Reserve(int(term) + 200)
	if allocs := testing.AllocsPerRun(100, func() {
		term++
		e := c.Spare()
		e.Term = term
		c.Put(term, e, 10)
	}); allocs != 0 {
		t.Errorf("a recycled miss allocates %.0f objects, want 0", allocs)
	}
}

func TestTerms(t *testing.T) {
	c := New(100, LRU, nil)
	c.Put(3, entry(3, 1), 10)
	c.Put(1, entry(1, 1), 10)
	terms := c.Terms()
	if len(terms) != 2 {
		t.Fatalf("Terms = %v", terms)
	}
	seen := map[uint32]bool{}
	for _, term := range terms {
		seen[term] = true
	}
	if !seen[1] || !seen[3] {
		t.Errorf("Terms = %v", terms)
	}
}

// Property: used bytes always equal the sum of cached entry sizes and never
// exceed the budget; every Get(t) after Put(t) with no interleaving
// eviction returns the entry.
func TestQuickInvariants(t *testing.T) {
	check := func(seed int64, policySeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		policy := Policy(policySeed % 2)
		df := func(term uint32) int64 { return int64(term%17) + 1 }
		budget := int64(r.Intn(200) + 50)
		c := New(budget, policy, df)
		sizes := make(map[uint32]int64)
		for op := 0; op < 500; op++ {
			term := uint32(r.Intn(40))
			switch r.Intn(3) {
			case 0:
				size := int64(r.Intn(60) + 1)
				c.Put(term, entry(term, 1), size)
				if size <= budget {
					sizes[term] = size
				} else {
					delete(sizes, term)
				}
			case 1:
				c.Get(term)
			case 2:
				c.Remove(term)
				delete(sizes, term)
			}
			if c.Used() > budget {
				return false
			}
			// Recompute used from live terms.
			var sum int64
			for _, term := range c.Terms() {
				if sz, ok := sizes[term]; ok {
					sum += sz
				} else {
					return false // cache holds a term we never put (or put oversized)
				}
			}
			if sum != c.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: under MinOuterDF, an evicted term never has a strictly higher
// priority than any term that remains cached.
func TestQuickMinDFEvictsLowest(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		df := func(term uint32) int64 { return int64(term % 23) }
		c := New(100, MinOuterDF, df)
		for op := 0; op < 300; op++ {
			term := uint32(r.Intn(60))
			evicted := c.Put(term, entry(term, 1), int64(r.Intn(30)+1))
			for _, ev := range evicted {
				for _, kept := range c.Terms() {
					if kept == term {
						// The just-inserted term is exempt: eviction
						// happens before insertion, so the newcomer may
						// have any priority.
						continue
					}
					if df(ev) > df(kept) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// model is the reference the cache is held to: the same policy over a
// plain list, every lookup and every victim choice a linear scan.
type model struct {
	policy   Policy
	budget   int64
	used     int64
	priority func(uint32) int64
	clock    int64
	stats    Stats
	items    []modelItem
}

type modelItem struct {
	term  uint32
	entry *invfile.Entry
	size  int64
	key   int64
}

func (m *model) find(term uint32) int {
	for i, it := range m.items {
		if it.term == term {
			return i
		}
	}
	return -1
}

func (m *model) drop(i int) {
	m.used -= m.items[i].size
	m.items = append(m.items[:i], m.items[i+1:]...)
}

func (m *model) get(term uint32) (*invfile.Entry, bool) {
	i := m.find(term)
	if i < 0 {
		m.stats.Misses++
		return nil, false
	}
	m.stats.Hits++
	if m.policy == LRU {
		m.clock++
		m.items[i].key = m.clock
	}
	return m.items[i].entry, true
}

func (m *model) put(term uint32, e *invfile.Entry, size int64) []uint32 {
	if i := m.find(term); i >= 0 {
		m.drop(i)
	}
	if size > m.budget {
		m.stats.Rejected++
		return nil
	}
	var evicted []uint32
	for m.used+size > m.budget {
		v := 0
		for i, it := range m.items {
			if best := m.items[v]; it.key < best.key || it.key == best.key && it.term < best.term {
				v = i
			}
		}
		evicted = append(evicted, m.items[v].term)
		m.drop(v)
		m.stats.Evictions++
	}
	key := m.priority(term)
	if m.policy == LRU {
		m.clock++
		key = m.clock
	}
	m.items = append(m.items, modelItem{term: term, entry: e, size: size, key: key})
	m.used += size
	return evicted
}

// TestVictimSequenceMatchesModel replays seeded traces of Get, Put and
// Remove through the cache and the linear-scan model under both policies,
// with and without a reserved slot table: every Get must agree on hit and
// entry, every Put on its evicted terms in order, and after every
// operation Hits, Misses, Evictions, Rejected, Used and Len must match.
// The traces are built to hold what the heap could get wrong: keys shared
// by many terms, re-inserts of cached terms, entries larger than the
// budget, Puts that evict several victims, and terms past the slot table.
func TestVictimSequenceMatchesModel(t *testing.T) {
	const budget = 120
	df := func(term uint32) int64 { return int64(term % 5) }
	for _, policy := range []Policy{MinOuterDF, LRU} {
		var ties, reinserts, rejected, multi int
		for seed := int64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			c := New(budget, policy, df)
			if seed%2 == 0 {
				c.Reserve(64)
			}
			m := &model{policy: policy, budget: budget, priority: df}
			for op := 0; op < 400; op++ {
				term := uint32(r.Intn(48))
				if r.Intn(20) == 0 {
					term = 64 + uint32(r.Intn(2000))
				}
				switch k := r.Intn(10); {
				case k < 5:
					e, hit := c.Get(term)
					me, mhit := m.get(term)
					if hit != mhit || e != me {
						t.Fatalf("%v seed %d op %d: Get(%d) = %p, %v; model %p, %v", policy, seed, op, term, e, hit, me, mhit)
					}
					if hit {
						break
					}
					fallthrough
				case k < 9:
					size := int64(1 + r.Intn(50))
					if r.Intn(25) == 0 {
						size = budget + 1 + int64(r.Intn(10))
						rejected++
					}
					if m.find(term) >= 0 {
						reinserts++
					}
					e := entry(term, 1)
					want := m.put(term, e, size)
					got := c.Put(term, e, size)
					if len(got) != len(want) {
						t.Fatalf("%v seed %d op %d: Put(%d, %d) evicted %v; model %v", policy, seed, op, term, size, got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v seed %d op %d: Put(%d, %d) evicted %v; model %v", policy, seed, op, term, size, got, want)
						}
					}
					if len(want) > 1 {
						multi++
					}
					for _, v := range want {
						for _, it := range m.items {
							if it.term != term && it.key == df(v) && policy == MinOuterDF {
								ties++
							}
						}
					}
				default:
					c.Remove(term)
					if i := m.find(term); i >= 0 {
						m.drop(i)
					}
				}
				if c.Stats() != m.stats || c.Used() != m.used || c.Len() != len(m.items) {
					t.Fatalf("%v seed %d op %d: stats %+v used %d len %d; model %+v used %d len %d",
						policy, seed, op, c.Stats(), c.Used(), c.Len(), m.stats, m.used, len(m.items))
				}
			}
		}
		if reinserts == 0 || rejected == 0 || multi == 0 || policy == MinOuterDF && ties == 0 {
			t.Errorf("%v traces too tame: %d re-inserts, %d rejected, %d multi-victim Puts, %d tied victims",
				policy, reinserts, rejected, multi, ties)
		}
	}
}

// BenchmarkCacheGetPut times one access of HVNL's probe pattern under the
// paper's policy: a seeded Zipf stream of terms, a miss Put back, and a
// budget a quarter of the bytes the stream touches, so hits, misses and
// evictions all happen. The priority is each term's frequency in the
// stream, standing in for its outer document frequency. Each iteration
// builds a new cache, as a join does.
func BenchmarkCacheGetPut(b *testing.B) {
	const terms = 40000
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 4, terms-1)
	stream := make([]uint32, 100000)
	freq := make([]int64, terms)
	for i := range stream {
		stream[i] = uint32(zipf.Uint64())
		freq[stream[i]]++
	}
	entries := make([]*invfile.Entry, terms)
	var touched int64
	for _, term := range stream {
		if entries[term] == nil {
			entries[term] = entry(term, 1+r.Intn(64))
			touched += entries[term].Bytes() + 3
		}
	}
	priority := func(term uint32) int64 { return freq[term] }
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c := New(touched/4, MinOuterDF, priority)
		for _, term := range stream {
			if _, ok := c.Get(term); !ok {
				e := entries[term]
				c.Put(term, e, e.Bytes()+3)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/access")
}
