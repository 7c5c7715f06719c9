package main

import (
	"errors"
	"sync"
	"time"

	"textjoin"
	"textjoin/internal/costmodel"
)

// Admission control: every /join request is charged an estimated memory
// footprint before it runs. A bytes-weighted semaphore admits requests
// while their footprints fit the configured budget; excess requests wait
// in a bounded FIFO queue with a deadline. The queue is the only place a
// request can park, so the server's peak memory is budget + one page of
// bookkeeping per queued request — it can neither OOM under a burst nor
// build an unbounded backlog.

var (
	// errQueueFull rejects a request when the wait queue is at capacity.
	errQueueFull = errors.New("admission queue full")
	// errQueueWait rejects a request that waited past the deadline.
	errQueueWait = errors.New("admission wait deadline exceeded")
)

// waiter is one parked request: ready is closed when its footprint fits.
type waiter struct {
	cost  int64
	ready chan struct{}
}

// admitter is the bytes-weighted FIFO semaphore. Footprints larger than
// the whole budget are clamped to it, so an oversized request is never
// rejected permanently — it simply runs alone.
type admitter struct {
	budget   int64
	maxQueue int
	maxWait  time.Duration
	tel      *textjoin.Telemetry

	mu    sync.Mutex
	inUse int64
	queue []*waiter
}

func newAdmitter(budget int64, maxQueue int, maxWait time.Duration, tel *textjoin.Telemetry) *admitter {
	if budget <= 0 {
		budget = 1
	}
	// Materialize the admission families at zero so the first scrape
	// already carries the levels, not just scrapes that follow load.
	tel.Counter("http.inflight").Add(0)
	tel.Counter("http.queue_depth").Add(0)
	tel.Counter("http.rejected").Add(0)
	return &admitter{budget: budget, maxQueue: maxQueue, maxWait: maxWait, tel: tel}
}

// clamp bounds a request's charge to the whole budget.
func (a *admitter) clamp(cost int64) int64 {
	if cost < 1 {
		return 1
	}
	if cost > a.budget {
		return a.budget
	}
	return cost
}

// admit charges cost bytes against the budget, parking in FIFO order
// when it does not fit. It returns the time spent queued; on error
// (queue full or deadline) the request was never admitted and must not
// be released.
func (a *admitter) admit(cost int64) (time.Duration, error) {
	cost = a.clamp(cost)
	a.mu.Lock()
	if len(a.queue) == 0 && a.inUse+cost <= a.budget {
		a.inUse += cost
		a.mu.Unlock()
		a.tel.Counter("http.inflight").Add(1)
		return 0, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		a.tel.Counter("http.rejected").Add(1)
		return 0, errQueueFull
	}
	w := &waiter{cost: cost, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.mu.Unlock()
	a.tel.Counter("http.queue_depth").Add(1)

	begin := time.Now()
	timer := time.NewTimer(a.maxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		a.tel.Counter("http.queue_depth").Add(-1)
		a.tel.Counter("http.inflight").Add(1)
		return time.Since(begin), nil
	case <-timer.C:
	}
	// Deadline fired. Remove ourselves — unless release admitted us in
	// the race window, in which case the admission stands.
	a.mu.Lock()
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			a.mu.Unlock()
			a.tel.Counter("http.queue_depth").Add(-1)
			a.tel.Counter("http.rejected").Add(1)
			return time.Since(begin), errQueueWait
		}
	}
	a.mu.Unlock()
	<-w.ready
	a.tel.Counter("http.queue_depth").Add(-1)
	a.tel.Counter("http.inflight").Add(1)
	return time.Since(begin), nil
}

// release returns an admitted request's charge and wakes every queued
// waiter that now fits, in arrival order.
func (a *admitter) release(cost int64) {
	cost = a.clamp(cost)
	a.mu.Lock()
	a.inUse -= cost
	for len(a.queue) > 0 {
		w := a.queue[0]
		if a.inUse+w.cost > a.budget {
			break
		}
		a.inUse += w.cost
		a.queue = a.queue[1:]
		close(w.ready)
	}
	a.mu.Unlock()
	a.tel.Counter("http.inflight").Add(-1)
}

// footprintBytes estimates the peak memory one join request pins while
// it runs: the page-buffer working set (bounded by both the memory
// budget B and the data actually on disk) plus the similarity
// accumulators the algorithms allocate — the λ-tracker over the outer
// collection and, for the inverted-file algorithms, one accumulator
// array over the inner collection. The two block families, "hhnl" and
// "lsh", hold no inner accumulator. The estimate reuses the cost model's
// S/D formulas and SimBytes constant so it tracks the same corpus
// statistics the planner sees.
// "auto" charges the worst case across algorithms, since the choice is
// not known until after admission.
func (s *server) footprintBytes(algName string, lambda int) int64 {
	st1, st2 := s.c1.Stats(), s.c2.Stats()
	pageSize := int64(s.c1.File().PageSize())

	// Working set: the join never buffers more than B pages, and never
	// more than both collections plus their inverted files (≈ D again).
	dataPages := 2 * (st1.D + st2.D)
	bufPages := s.cfg.MemoryPages
	if dataPages < bufPages {
		bufPages = dataPages
	}
	buffer := bufPages * pageSize

	// λ-tracker: λ best matches for every outer document.
	tracker := int64(costmodel.SimBytes) * int64(lambda) * st2.N

	// Accumulators: HVNL and VVM keep one similarity slot per inner
	// document.
	accum := int64(costmodel.SimBytes) * st1.N
	if algName == "hhnl" || algName == "lsh" {
		accum = 0
	}
	return buffer + tracker + accum
}
