package core

import (
	"runtime"
	"sync"
)

// A join family's run state is what its joins only work in: the
// accumulators, the entry cache, the batch arena and block, the scanners'
// buffers. It outlives the join. Run takes one from its family's free
// list, the join resizes it to its memory plan, and every exit path gives
// it back holding no reference to the join's inputs, view, scorer or
// trace (release). The result rows never come from it: a caller owns
// them. So a join no larger than one its family ran before allocates
// little beyond its rows.
//
// Concurrent joins take distinct states. An idle state is memory no
// admission budget charges, and the collector frees it: like a sync.Pool,
// the list drops what two collections in a row find idle. Unlike one, it
// is a single list, so a state put back on one processor is the next get
// on any: a sync.Pool keeps a put in its processor's private slot, where a
// get on another processor cannot see it and builds a new state.
type runStates[T any, P interface {
	*T
	release()
}] struct {
	mu sync.Mutex
	// idle were put back since the last collection; aged were idle
	// through it, and go with the next.
	idle, aged []P
}

// get returns the most recently idle state, or a new one.
func (r *runStates[T, P]) get() P {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, list := range [...]*[]P{&r.idle, &r.aged} {
		if n := len(*list) - 1; n >= 0 {
			s := (*list)[n]
			(*list)[n] = nil
			*list = (*list)[:n]
			return s
		}
	}
	return P(new(T))
}

// put releases s and makes it idle.
func (r *runStates[T, P]) put(s P) {
	s.release()
	r.mu.Lock()
	r.idle = append(r.idle, s)
	r.mu.Unlock()
}

// age runs after every collection: it drops the states idle through the
// one before.
func (r *runStates[T, P]) age() {
	r.mu.Lock()
	clear(r.aged)
	r.aged, r.idle = r.idle, r.aged[:0]
	r.mu.Unlock()
}

var (
	vvmStates   runStates[vvmState, *vvmState]
	hvnlStates  runStates[hvnlState, *hvnlState]
	blockStates runStates[blockState, *blockState]
)

// gcSentinel is garbage whose finalizer runs once per collection: it ages
// the free lists and arms the next sentinel.
type gcSentinel struct{ _ *int }

func init() { armAging() }

func armAging() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		vvmStates.age()
		hvnlStates.age()
		blockStates.age()
		armAging()
	})
}
