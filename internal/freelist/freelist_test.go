package freelist

import (
	"sync"
	"testing"
)

type item struct {
	n        int
	released bool
}

// TestListRecyclesNewestFirstAndAges: Get hands back the value put last,
// released; an idle value survives one collection and not two; an empty
// list makes a new value.
func TestListRecyclesNewestFirstAndAges(t *testing.T) {
	// Not made by New, so only the test's own Age calls age it.
	l := &List[item]{release: func(x *item) { x.released = true }}
	a, b := l.Get(), l.Get()
	a.n, b.n = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b || !got.released {
		t.Fatalf("Get after Put(a), Put(b) = %+v, want b released", got)
	}
	l.Put(b)
	l.Age()
	if got := l.Get(); got != b {
		t.Fatalf("after one collection Get = %+v, want b", got)
	}
	l.Put(b)
	l.Age()
	l.Age()
	if got := l.Get(); got == a || got == b || got.n != 0 {
		t.Fatalf("after two collections Get = %+v, want a new value", got)
	}
}

// TestListConcurrentUse: values taken at once are distinct, and a new
// value is made only when none is idle, so four users leave at most four
// idle values behind.
func TestListConcurrentUse(t *testing.T) {
	l := New[item](nil)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				x := l.Get()
				if x.n != 0 {
					t.Errorf("a value in use was handed out again")
				}
				x.n = 1
				x.n = 0
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	l.mu.Lock()
	idle := len(l.idle) + len(l.aged)
	l.mu.Unlock()
	if idle > 4 {
		t.Errorf("%d idle values after 4 concurrent users, want at most 4", idle)
	}
}
