// Package entrycache implements HVNL's memory-budgeted cache of inverted
// file entries.
//
// "To reduce the I/O cost, inverted file entries that are read in for
// processing earlier documents are kept in the memory to process later
// documents. ... Our replacement policy chooses the inverted file entry
// whose corresponding term has the lowest frequency in C2 to replace. This
// reduces the possibility of the replaced inverted file entry to be reused
// in the future."
//
// The cache is byte-budgeted (the paper reasons in pages of entries; bytes
// are the exact equivalent) and supports two replacement policies: the
// paper's minimum-outer-document-frequency policy and plain LRU, kept for
// the ablation benchmark.
package entrycache

import (
	"fmt"

	"textjoin/internal/invfile"
	"textjoin/internal/telemetry"
)

// Policy selects the replacement victim.
type Policy int

const (
	// MinOuterDF evicts the entry whose term has the lowest document
	// frequency in the outer collection — the paper's policy.
	MinOuterDF Policy = iota
	// LRU evicts the least recently used entry (ablation baseline).
	LRU
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinOuterDF:
		return "min-outer-df"
	case LRU:
		return "lru"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Rejected  int64 // entries larger than the whole budget, never cached
}

// HitRate returns hits / (hits + misses), 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// item is one cached entry, kept in the cache's item arena.
type item struct {
	entry *invfile.Entry
	size  int64
	// key orders the eviction heap: the fixed outer document frequency
	// under MinOuterDF, the last-access tick under LRU. Lower = evicted
	// first; equal keys go lowest term first, so the order is total.
	key  int64
	term uint32
	at   int32 // the item's position in the heap
}

// Cache is a byte-budgeted inverted-file entry cache. It is not safe for
// concurrent use; a join runs single-threaded over its own cache.
//
// Every table is indexed by a dense number: slot by term number, the item
// arena by slot, and the eviction heap holds arena indices. A lookup is
// one slice read, and Put allocates nothing once the cache has held as
// many entries as it holds and the slot table covers the term: a removed
// item's arena index is kept for the next insertion, and the evicted
// terms come back in a buffer the next Put overwrites. The entries
// themselves are recycled as well: an evicted entry goes onto a short free
// list, and Spare hands its cell slab to the next miss to decode into. An
// evicted entry is the cache's to overwrite, so a caller must hold no
// cached entry, nor any sub-slice of its cells, past the next Put.
type Cache struct {
	policy   Policy
	budget   int64
	used     int64
	priority func(term uint32) int64
	clock    int64
	stats    Stats

	// slot is indexed by term number: 0 for an absent term, 1+i for
	// items[i]. Reserve sizes it; a Put past its end grows it.
	slot  []int32
	items []item
	free  []int32 // unused indices of items
	heap  []int32 // binary min-heap of indices of items, over (key, term)

	evicted []uint32
	spares  []*invfile.Entry // evicted entries, for Spare

	// Telemetry counters keyed by policy name, resolved once by
	// SetTelemetry; nil (no-op) when telemetry is disabled.
	telHits      *telemetry.Counter
	telMisses    *telemetry.Counter
	telEvictions *telemetry.Counter
	telRejected  *telemetry.Counter
}

// New creates a cache with the given byte budget. priority returns the
// eviction key for a term under MinOuterDF (the term's document frequency
// in the outer collection); it may be nil for LRU.
func New(budget int64, policy Policy, priority func(uint32) int64) *Cache {
	if policy == MinOuterDF && priority == nil {
		panic("entrycache: MinOuterDF policy requires a priority function")
	}
	return &Cache{policy: policy, budget: budget, priority: priority}
}

// Reserve sizes the slot table for term numbers below terms, so that no
// Put grows it. A caller that knows its term universe (HVNL: the loaded
// index's largest term + 1) calls it once, before the first Put.
func (c *Cache) Reserve(terms int) {
	if terms > len(c.slot) {
		grown := make([]int32, terms)
		copy(grown, c.slot)
		c.slot = grown
	}
}

// SetTelemetry attaches live hit/miss/eviction counters, named by the
// cache's policy ("cache.<policy>.hits" etc.) so ablation runs comparing
// policies stay distinguishable in one snapshot. A nil collector is a
// no-op: the cache keeps its own Stats either way.
func (c *Cache) SetTelemetry(t *telemetry.Collector) {
	if t == nil {
		return
	}
	p := c.policy.String()
	c.telHits = t.Counter("cache." + p + ".hits")
	c.telMisses = t.Counter("cache." + p + ".misses")
	c.telEvictions = t.Counter("cache." + p + ".evictions")
	c.telRejected = t.Counter("cache." + p + ".rejected")
}

// Budget returns the byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the bytes currently held.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.heap) }

// Stats returns the hit/miss/eviction counters.
func (c *Cache) Stats() Stats { return c.stats }

// find returns the arena index of term's item, or -1 when term is absent.
func (c *Cache) find(term uint32) int32 {
	if int(term) < len(c.slot) {
		return c.slot[term] - 1
	}
	return -1
}

// Contains reports whether term is cached, without counting a lookup and
// without touching LRU recency. HVNL uses it to order a document's terms
// so that cached entries are consumed first ("terms in d1 whose
// corresponding inverted file entries are already in the memory are
// considered first").
func (c *Cache) Contains(term uint32) bool { return c.find(term) >= 0 }

// Get returns the cached entry for term, counting a hit or miss and (under
// LRU) refreshing recency.
func (c *Cache) Get(term uint32) (*invfile.Entry, bool) {
	i := c.find(term)
	if i < 0 {
		c.stats.Misses++
		c.telMisses.Add(1)
		return nil, false
	}
	c.stats.Hits++
	c.telHits.Add(1)
	it := &c.items[i]
	if c.policy == LRU {
		// The newest tick is the largest key, so the item only sinks.
		c.clock++
		it.key = c.clock
		c.down(int(it.at))
	}
	return it.entry, true
}

// maxSpares bounds the free list of evicted entries. A cache under
// pressure evicts about one entry per insertion, so a few spares cover
// the misses in between.
const maxSpares = 16

// Spare returns an entry for the next miss to decode into: the last
// evicted entry on the free list, whose cell slab the decode reuses (or
// outgrows), or a new entry when the list is empty.
func (c *Cache) Spare() *invfile.Entry {
	last := len(c.spares) - 1
	if last < 0 {
		return &invfile.Entry{}
	}
	e := c.spares[last]
	c.spares[last] = nil
	c.spares = c.spares[:last]
	return e
}

// Put inserts an entry of the given byte size, evicting victims until it
// fits. Entries larger than the whole budget are not cached (the caller
// still holds the fetched entry for the current document). Re-inserting a
// cached term replaces the old copy. It returns the evicted terms, in
// eviction order, in a buffer the next Put overwrites.
func (c *Cache) Put(term uint32, entry *invfile.Entry, size int64) []uint32 {
	if i := c.find(term); i >= 0 {
		c.remove(i)
	}
	if size > c.budget {
		c.stats.Rejected++
		c.telRejected.Add(1)
		return nil
	}
	c.evicted = c.evicted[:0]
	for c.used+size > c.budget {
		victim := c.heap[0]
		if len(c.spares) < maxSpares {
			c.spares = append(c.spares, c.items[victim].entry)
		}
		c.evicted = append(c.evicted, c.items[victim].term)
		c.remove(victim)
		c.stats.Evictions++
		c.telEvictions.Add(1)
	}
	if int(term) >= len(c.slot) {
		c.Reserve(max(int(term)+1, 2*len(c.slot)))
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = int32(len(c.items))
		c.items = append(c.items, item{})
	}
	var key int64
	switch c.policy {
	case MinOuterDF:
		key = c.priority(term)
	case LRU:
		c.clock++
		key = c.clock
	}
	c.items[i] = item{entry: entry, size: size, key: key, term: term}
	c.slot[term] = i + 1
	c.heap = append(c.heap, i)
	c.up(len(c.heap) - 1)
	c.used += size
	return c.evicted
}

// Remove drops term from the cache if present.
func (c *Cache) Remove(term uint32) {
	if i := c.find(term); i >= 0 {
		c.remove(i)
	}
}

// Terms returns the cached terms in unspecified order.
func (c *Cache) Terms() []uint32 {
	out := make([]uint32, len(c.heap))
	for k, i := range c.heap {
		out[k] = c.items[i].term
	}
	return out
}

// remove drops items[i] from the heap and the slot table and keeps its
// index for the next insertion.
func (c *Cache) remove(i int32) {
	it := &c.items[i]
	at, last := int(it.at), len(c.heap)-1
	moved := c.heap[last]
	c.heap = c.heap[:last]
	if at != last {
		c.heap[at] = moved
		c.items[moved].at = int32(at)
		if !c.down(at) {
			c.up(at)
		}
	}
	c.slot[it.term] = 0
	c.used -= it.size
	it.entry = nil
	c.free = append(c.free, i)
}

// less orders items a and b for eviction: lower key first, then lower term.
func (c *Cache) less(a, b int32) bool {
	x, y := &c.items[a], &c.items[b]
	return x.key < y.key || x.key == y.key && x.term < y.term
}

// up moves the heap element at position j toward the root until its
// parent precedes it.
func (c *Cache) up(j int) {
	h := c.heap
	x := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if !c.less(x, h[p]) {
			break
		}
		h[j] = h[p]
		c.items[h[j]].at = int32(j)
		j = p
	}
	h[j] = x
	c.items[x].at = int32(j)
}

// down moves the heap element at position j toward the leaves until it
// precedes both children, and reports whether it moved.
func (c *Cache) down(j int) bool {
	h := c.heap
	x, start := h[j], j
	for {
		m := 2*j + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && c.less(h[r], h[m]) {
			m = r
		}
		if !c.less(h[m], x) {
			break
		}
		h[j] = h[m]
		c.items[h[j]].at = int32(j)
		j = m
	}
	h[j] = x
	c.items[x].at = int32(j)
	return j > start
}
