// Package freelist keeps working sets that outlive the task that used
// them: a join's run state, a served request's row set and reply buffer.
// A task takes the most recently idle value from its list, or a new one,
// and puts it back when it is done, so a task no larger than one that ran
// before allocates little beyond what it hands out.
//
// An idle value is memory no admission budget charges, and the collector
// frees it: like a sync.Pool, a list drops what two collections in a row
// find idle. Unlike one, it is a single list, so a value put back on one
// processor is the next get on any: a sync.Pool keeps a put in its
// processor's private slot, where a get on another processor cannot see
// it and builds a new value.
package freelist

import (
	"runtime"
	"sync"
)

// List is a free list of *T. Make one with New; a List is safe for
// concurrent use.
type List[T any] struct {
	release func(*T)
	mu      sync.Mutex
	// idle were put back since the last collection; aged were idle
	// through it, and go with the next.
	idle, aged []*T
}

// New returns a list whose Put calls release, when it is not nil, on the
// value before it becomes idle: to drop what the value must not keep
// alive. The list lives as long as the process; make it once, into a
// package-level variable.
func New[T any](release func(*T)) *List[T] {
	l := &List[T]{release: release}
	lists.Lock()
	lists.all = append(lists.all, l)
	lists.Unlock()
	return l
}

// Get returns the most recently idle value, or a new one.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, list := range [...]*[]*T{&l.idle, &l.aged} {
		if n := len(*list) - 1; n >= 0 {
			x := (*list)[n]
			(*list)[n] = nil
			*list = (*list)[:n]
			return x
		}
	}
	return new(T)
}

// Put releases x and makes it idle. x must not be used after it.
func (l *List[T]) Put(x *T) {
	if l.release != nil {
		l.release(x)
	}
	l.mu.Lock()
	l.idle = append(l.idle, x)
	l.mu.Unlock()
}

// Age is what a collection does to the list: it drops the values idle
// through the collection before and marks the rest as idle through this
// one. Two calls in a row empty the list.
func (l *List[T]) Age() {
	l.mu.Lock()
	clear(l.aged)
	l.aged, l.idle = l.idle, l.aged[:0]
	l.mu.Unlock()
}

// lists are every list New made: the collector ages them all.
var lists struct {
	sync.Mutex
	all []interface{ Age() }
}

// gcSentinel is garbage whose finalizer runs once per collection: it ages
// every list and arms the next sentinel.
type gcSentinel struct{ _ *int }

func init() { armAging() }

func armAging() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		lists.Lock()
		all := lists.all
		lists.Unlock()
		for _, l := range all {
			l.Age()
		}
		armAging()
	})
}
