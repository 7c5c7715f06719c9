package core

import "textjoin/internal/freelist"

// A join family's run state is what its joins only work in: the
// accumulators, the entry cache, the batch arena and block, the trackers'
// count and bar vectors, the scanners' buffers and the outer iterator. It
// outlives the join. Run takes one from
// its family's free list, the join resizes it to its memory plan, and
// every exit path gives it back holding no reference to the join's
// inputs, view, scorer, trace or row set (release). The result rows never
// come from it: they come from the caller's row set (Rows), which Run makes new
// and RunInto takes from its caller. So a join no larger than one its
// family ran before allocates little beyond its rows, and nothing beyond
// them when its row set is recycled too.
//
// Concurrent joins take distinct states. The free lists are
// internal/freelist's: one mutex-guarded list per family, aged by the
// collector like a sync.Pool, but one list, so a state put back on one
// processor is the next get on any.
var (
	vvmStates   = freelist.New((*vvmState).release)
	hvnlStates  = freelist.New((*hvnlState).release)
	blockStates = freelist.New((*blockState).release)
)
