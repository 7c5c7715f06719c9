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
	"math"
	"math/bits"
	"slices"

	"textjoin/internal/invfile"
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

// Stats reports cache effectiveness under the cache's policy.
type Stats struct {
	Policy    Policy
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
// themselves are recycled as well: an evicted entry goes onto the free
// list of its size class unless the free lists would then hold entries
// charged more than the budget, and Spare hands a cell slab with room for
// the next miss to decode into. An entry held as a column (Entry.Column)
// is recycled the same way, through a free list of its own that
// SpareColumn hands out from. An evicted entry is the cache's to overwrite,
// so a caller must hold no cached entry, nor any sub-slice of its cells,
// past the next Put. Reset readies the cache for another join and keeps
// all of it, the cached entries' slabs included.
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
	// spares[k] holds released entries, for Spare, whose cell capacity
	// lies in [2^k, 2^(k+1)) (class); they were charged spareBytes when
	// cached.
	spares [][]spare
	// columns holds released column entries, for SpareColumn; they count
	// in spareBytes too.
	columns    []spare
	spareBytes int64
	// heads and chunk.Cells are carved into new entries: a header each
	// and a slab of cells each, so a cold cache allocates per chunk, not
	// per entry.
	heads []invfile.Entry
	chunk invfile.Entry
}

// New creates a cache with the given byte budget. priority returns the
// eviction key for a term under MinOuterDF (the term's document frequency
// in the outer collection); it may be nil for LRU.
func New(budget int64, policy Policy, priority func(uint32) int64) *Cache {
	c := &Cache{}
	c.Reset(budget, policy, priority)
	return c
}

// Reset empties the cache and readies it, as New would, for the given
// budget, policy and priority. It keeps what the cache has allocated: the
// slot table, the item arena and the heap, and every cached entry, whose
// slab Spare hands out again.
func (c *Cache) Reset(budget int64, policy Policy, priority func(uint32) int64) {
	if policy == MinOuterDF && priority == nil {
		panic("entrycache: MinOuterDF policy requires a priority function")
	}
	for _, i := range c.heap {
		it := &c.items[i]
		c.slot[it.term] = 0
		c.release(it, math.MaxInt64)
		*it = item{}
	}
	c.items, c.free, c.heap = c.items[:0], c.free[:0], c.heap[:0]
	c.policy, c.budget, c.used, c.priority, c.clock = policy, budget, 0, priority, 0
	c.stats = Stats{Policy: policy}
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

// Budget returns the byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the bytes currently held.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.heap) }

// Stats returns the policy and the hit/miss/eviction counters.
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
		return nil, false
	}
	c.stats.Hits++
	it := &c.items[i]
	if c.policy == LRU {
		// The newest tick is the largest key, so the item only sinks.
		c.clock++
		it.key = c.clock
		c.down(int(it.at))
	}
	return it.entry, true
}

// spare is a released entry with the bytes it was charged when cached.
type spare struct {
	entry *invfile.Entry
	size  int64
}

// chunkCells is how many cells one allocation carves into new entries'
// slabs. An entry of more than a quarter of it gets a slab of its own,
// rounded up to a power of two: any released slab of its size class then
// has room for any entry of that class.
const chunkCells = 4096

// class is the size class of a slab of n cells: ⌊log2 n⌋, 0 for none.
func class(n int) int { return max(0, bits.Len(uint(n))-1) }

// Spare returns an entry for the next miss to decode an entry of the
// given cell count into, without growing: the last released entry with
// room of the smallest size class that has one, or a new one. A slab cut
// from a chunk is exactly its first entry's size, so the entry's own class
// is searched through: its last entry may lack the room an earlier one has.
func (c *Cache) Spare(cells int) *invfile.Entry {
	for k := class(cells); k < len(c.spares); k++ {
		list := c.spares[k]
		for i := len(list) - 1; i >= 0; i-- {
			if cap(list[i].entry.Cells) >= cells {
				sp, last := list[i], len(list)-1
				list[i], list[last] = list[last], spare{}
				c.spares[k] = list[:last]
				c.spareBytes -= sp.size
				return sp.entry
			}
		}
	}
	e := c.head()
	if cells > chunkCells/4 {
		e.Cells = slices.Grow(e.Cells, 1<<bits.Len(uint(cells-1)))
		return e
	}
	free := c.chunk.Cells
	if cells > len(free) {
		free = slices.Grow(free[:0:0], chunkCells)[:chunkCells]
	}
	e.Cells, c.chunk.Cells = free[:0:cells], free[cells:]
	return e
}

// SpareColumn returns an entry for the next miss to hold a column of n
// weights in, as Spare does for cells: the last released column entry
// with room for n, or a new one.
func (c *Cache) SpareColumn(n int) *invfile.Entry {
	for i := len(c.columns) - 1; i >= 0; i-- {
		if cap(c.columns[i].entry.Column) >= n {
			sp, last := c.columns[i], len(c.columns)-1
			c.columns[i], c.columns[last] = c.columns[last], spare{}
			c.columns = c.columns[:last]
			c.spareBytes -= sp.size
			return sp.entry
		}
	}
	e := c.head()
	e.Column = make([]uint16, 0, n)
	return e
}

// head returns a new entry's header, carved from a block of 64.
func (c *Cache) head() *invfile.Entry {
	if len(c.heads) == 0 {
		c.heads = make([]invfile.Entry, 64)
	}
	e := &c.heads[0]
	c.heads = c.heads[1:]
	return e
}

// release puts the entry of it on its size class's free list, or a column
// entry on the column list, when the spares, it included, were charged at
// most most bytes when cached.
func (c *Cache) release(it *item, most int64) {
	if c.spareBytes+it.size > most {
		return
	}
	if it.entry.Column != nil {
		c.columns = append(c.columns, spare{it.entry, it.size})
		c.spareBytes += it.size
		return
	}
	k := class(cap(it.entry.Cells))
	for len(c.spares) <= k {
		c.spares = append(c.spares, nil)
	}
	c.spares[k] = append(c.spares[k], spare{it.entry, it.size})
	c.spareBytes += it.size
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
		return nil
	}
	c.evicted = c.evicted[:0]
	for c.used+size > c.budget {
		victim := c.heap[0]
		c.release(&c.items[victim], c.budget)
		c.evicted = append(c.evicted, c.items[victim].term)
		c.remove(victim)
		c.stats.Evictions++
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
