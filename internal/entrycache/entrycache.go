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
	"container/heap"
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

type item struct {
	term  uint32
	entry *invfile.Entry
	size  int64
	// key orders the eviction heap: the fixed outer document frequency
	// under MinOuterDF, the last-access tick under LRU. Lower = evicted
	// first.
	key int64
	// idx is the item's position in the heap, maintained by the heap
	// interface methods.
	idx int
}

// Cache is a byte-budgeted inverted-file entry cache. It is not safe for
// concurrent use; a join runs single-threaded over its own cache.
//
// Put allocates nothing once the cache has held as many entries as it
// holds: a removed item is kept for the next insertion, and the evicted
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
	items    map[uint32]*item
	heap     evictHeap
	clock    int64
	stats    Stats

	spareItems []*item
	evicted    []uint32
	spares     []*invfile.Entry // evicted entries, for Spare

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
	return &Cache{
		policy:   policy,
		budget:   budget,
		priority: priority,
		items:    make(map[uint32]*item),
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
func (c *Cache) Len() int { return len(c.items) }

// Stats returns the hit/miss/eviction counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether term is cached, without counting a lookup and
// without touching LRU recency. HVNL uses it to order a document's terms
// so that cached entries are consumed first ("terms in d1 whose
// corresponding inverted file entries are already in the memory are
// considered first").
func (c *Cache) Contains(term uint32) bool {
	_, ok := c.items[term]
	return ok
}

// Get returns the cached entry for term, counting a hit or miss and (under
// LRU) refreshing recency.
func (c *Cache) Get(term uint32) (*invfile.Entry, bool) {
	it, ok := c.items[term]
	if !ok {
		c.stats.Misses++
		c.telMisses.Add(1)
		return nil, false
	}
	c.stats.Hits++
	c.telHits.Add(1)
	if c.policy == LRU {
		c.clock++
		it.key = c.clock
		heap.Fix(&c.heap, it.idx)
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
	if old, ok := c.items[term]; ok {
		c.removeItem(old)
	}
	if size > c.budget {
		c.stats.Rejected++
		c.telRejected.Add(1)
		return nil
	}
	c.evicted = c.evicted[:0]
	for c.used+size > c.budget {
		victim := c.heap.items[0]
		if len(c.spares) < maxSpares {
			c.spares = append(c.spares, victim.entry)
		}
		c.evicted = append(c.evicted, victim.term)
		c.removeItem(victim)
		c.stats.Evictions++
		c.telEvictions.Add(1)
	}
	var it *item
	if n := len(c.spareItems); n > 0 {
		it = c.spareItems[n-1]
		c.spareItems = c.spareItems[:n-1]
	} else {
		it = &item{}
	}
	*it = item{term: term, entry: entry, size: size}
	switch c.policy {
	case MinOuterDF:
		it.key = c.priority(term)
	case LRU:
		c.clock++
		it.key = c.clock
	}
	c.items[term] = it
	heap.Push(&c.heap, it)
	c.used += size
	return c.evicted
}

// Remove drops term from the cache if present.
func (c *Cache) Remove(term uint32) {
	if it, ok := c.items[term]; ok {
		c.removeItem(it)
	}
}

// Terms returns the cached terms in unspecified order.
func (c *Cache) Terms() []uint32 {
	out := make([]uint32, 0, len(c.items))
	for t := range c.items {
		out = append(out, t)
	}
	return out
}

// removeItem drops it from the cache and keeps it for the next insertion.
func (c *Cache) removeItem(it *item) {
	heap.Remove(&c.heap, it.idx)
	delete(c.items, it.term)
	c.used -= it.size
	it.entry = nil
	c.spareItems = append(c.spareItems, it)
}

// evictHeap is a min-heap over item.key with index maintenance.
type evictHeap struct {
	items []*item
}

func (h evictHeap) Len() int { return len(h.items) }

func (h evictHeap) Less(i, j int) bool {
	if h.items[i].key != h.items[j].key {
		return h.items[i].key < h.items[j].key
	}
	// Deterministic tie-break by term number.
	return h.items[i].term < h.items[j].term
}

func (h evictHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].idx = i
	h.items[j].idx = j
}

func (h *evictHeap) Push(x any) {
	it := x.(*item)
	it.idx = len(h.items)
	h.items = append(h.items, it)
}

func (h *evictHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return it
}
