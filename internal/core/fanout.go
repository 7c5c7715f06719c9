package core

import (
	"sort"
	"sync"

	"textjoin/internal/codec"
)

// The paper's concluding remarks list "(3) develop algorithms that
// process textual joins in parallel" as further study. Options.Workers
// answers it inside the two accumulating joins, HVNL and VVM: the
// coordinator performs every storage access, cache probe and Stats count on
// the calling goroutine, and hands the CPU side — accumulation and top-λ
// selection — to a small stage that is called inline at Workers ≤ 1 and
// drained by that many goroutines otherwise. The two block families, HHNL
// and LSH, run inline at every Workers: a fan-out of theirs has to earn a
// speed-up first (DESIGN §5.8).
//
// Storage access deliberately never fans out: the paper's cost model is
// about page I/O, and interleaving concurrent readers would corrupt the
// sequential/random classification (and model a different device). What
// parallelizes is the work the paper excludes from its cost model but
// which dominates wall-clock time in memory-resident runs. Results are
// identical at every worker count: workers produce candidates for
// disjoint document pairs, the tracker's order (similarity descending,
// document ascending) is total, and so the top-λ of the merged candidates
// is the global top-λ.

// fanOut is the one place the joins start goroutines: each worker drains
// its own queue — one per ownership shard — running body until it closes.
type fanOut[T any] struct {
	queues []chan T
	wg     sync.WaitGroup
}

// startFanOut starts the workers. The coordinator must call wait exactly
// once on every path, error paths included: that is what guarantees no
// goroutine outlives a failed join.
func startFanOut[T any](workers, depth int, body func(w int, in <-chan T)) *fanOut[T] {
	f := &fanOut[T]{queues: make([]chan T, workers)}
	for w := range f.queues {
		f.queues[w] = make(chan T, depth)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			body(w, f.queues[w])
		}()
	}
	return f
}

// wait closes every queue and blocks until all workers have returned.
func (f *fanOut[T]) wait() {
	for _, q := range f.queues {
		close(q)
	}
	f.wg.Wait()
}

// ownerQueueDepth buffers each ownership shard's queue: deep enough that
// the coordinator keeps routing (and reading ahead) while one shard works
// through a long entry, small enough to bound the entries pinned in flight.
const ownerQueueDepth = 128

// splitByOwner hands fn each owner's contiguous sub-slice of cells: owner
// w owns the document numbers [bounds[w], bounds[w+1]). Cells and bounds
// both ascend, so one forward sweep of binary searches splits the list
// without copying. The sub-slices alias the entry's cell array (which the
// garbage collector therefore pins), so evicting a cached entry whose
// cells a worker is still scanning is safe as long as nothing reuses the
// array: a fanned-out HVNL does not recycle evicted entries.
func splitByOwner(cells []codec.Cell, bounds []uint32, fn func(w int, part []codec.Cell)) {
	i := 0
	for w := 0; w+1 < len(bounds) && i < len(cells); w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			continue
		}
		start := i + sort.Search(len(cells)-i, func(k int) bool { return cells[i+k].Number >= lo })
		end := start + sort.Search(len(cells)-start, func(k int) bool { return cells[start+k].Number >= hi })
		i = end
		if start < end {
			fn(w, cells[start:end])
		}
	}
}
