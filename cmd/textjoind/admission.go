package main

import (
	"errors"
	"sync"
	"time"

	"textjoin"
	"textjoin/internal/metrics"
)

// Admission control: every /join request is planned first and charged
// its plan's PeakBytes, the bytes the join holds (textjoin.Plan); a plan
// that cannot run is answered uncharged. A bytes-weighted semaphore admits
// requests while their charges fit the budget; excess requests wait in a
// bounded FIFO queue with a deadline. The queue is the only place a
// request can park, so the server's peak memory is budget + one page of
// bookkeeping per queued request — it can neither OOM under a burst nor
// build an unbounded backlog.

var (
	// errQueueFull rejects a request when the wait queue is at capacity.
	errQueueFull = errors.New("admission queue full")
	// errQueueWait rejects a request that waited past the deadline.
	errQueueWait = errors.New("admission wait deadline exceeded")
)

// waiter is one parked request: ready is closed when its charge fits.
type waiter struct {
	cost  int64
	ready chan struct{}
}

// admitter is the bytes-weighted FIFO semaphore. Charges larger than
// the whole budget are clamped to it, so an oversized request is never
// rejected permanently — it simply runs alone.
type admitter struct {
	budget   int64
	maxQueue int
	maxWait  time.Duration
	// The admission series: the two levels and the rejection count.
	inflight, queued, rejected *metrics.Counter

	mu    sync.Mutex
	inUse int64
	queue []*waiter
}

func newAdmitter(budget int64, maxQueue int, maxWait time.Duration, tel *textjoin.Telemetry) *admitter {
	if budget <= 0 {
		budget = 1
	}
	// Resolving the admission series creates them at zero, so the first
	// scrape already carries the levels, not just scrapes that follow load.
	return &admitter{
		budget: budget, maxQueue: maxQueue, maxWait: maxWait,
		inflight: tel.Gauge("textjoin_http_inflight"),
		queued:   tel.Gauge("textjoin_http_queue_depth"),
		rejected: tel.Counter("textjoin_http_rejected_total"),
	}
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
		a.inflight.Add(1)
		return 0, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		a.rejected.Add(1)
		return 0, errQueueFull
	}
	w := &waiter{cost: cost, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.mu.Unlock()
	a.queued.Add(1)

	begin := time.Now()
	timer := time.NewTimer(a.maxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		a.queued.Add(-1)
		a.inflight.Add(1)
		return time.Since(begin), nil
	case <-timer.C:
	}
	// Deadline fired. Remove ourselves — unless release admitted us in
	// the race window, in which case the admission stands. A head that
	// leaves may uncover waiters behind it that already fit.
	a.mu.Lock()
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			a.drain()
			a.mu.Unlock()
			a.queued.Add(-1)
			a.rejected.Add(1)
			return time.Since(begin), errQueueWait
		}
	}
	a.mu.Unlock()
	<-w.ready
	a.queued.Add(-1)
	a.inflight.Add(1)
	return time.Since(begin), nil
}

// release returns an admitted request's charge and wakes the waiters
// that now fit.
func (a *admitter) release(cost int64) {
	cost = a.clamp(cost)
	a.mu.Lock()
	a.inUse -= cost
	a.drain()
	a.mu.Unlock()
	a.inflight.Add(-1)
}

// drain admits queued waiters in arrival order while the head fits. It
// runs with a.mu held, whenever the budget frees or the head leaves.
func (a *admitter) drain() {
	for len(a.queue) > 0 {
		w := a.queue[0]
		if a.inUse+w.cost > a.budget {
			break
		}
		a.inUse += w.cost
		a.queue = a.queue[1:]
		close(w.ready)
	}
}
