package main

import (
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"textjoin"
)

func testAdmitter(budget int64, queue int, wait time.Duration) *admitter {
	return newAdmitter(budget, queue, wait, textjoin.NewTelemetry())
}

func TestAdmitterAdmitsWithinBudget(t *testing.T) {
	a := testAdmitter(100, 4, time.Second)
	for i := 0; i < 4; i++ {
		queued, err := a.admit(25)
		if err != nil || queued != 0 {
			t.Fatalf("admit %d: queued=%v err=%v", i, queued, err)
		}
	}
	if a.inUse != 100 {
		t.Fatalf("inUse = %d, want 100", a.inUse)
	}
	for i := 0; i < 4; i++ {
		a.release(25)
	}
	if a.inUse != 0 {
		t.Fatalf("inUse after release = %d, want 0", a.inUse)
	}
}

// TestAdmitterClampsOversized: a footprint beyond the whole budget is
// clamped, never rejected outright — the request simply runs alone.
func TestAdmitterClampsOversized(t *testing.T) {
	a := testAdmitter(100, 4, time.Second)
	if _, err := a.admit(1 << 40); err != nil {
		t.Fatalf("oversized request rejected: %v", err)
	}
	if a.inUse != 100 {
		t.Fatalf("inUse = %d, want clamped 100", a.inUse)
	}
	a.release(1 << 40)
	if a.inUse != 0 {
		t.Fatalf("inUse after release = %d, want 0", a.inUse)
	}
}

// TestAdmitterQueueFull: with the budget held and the queue at
// capacity, the next request is rejected immediately.
func TestAdmitterQueueFull(t *testing.T) {
	a := testAdmitter(100, 0, time.Second)
	if _, err := a.admit(100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.admit(1); !errors.Is(err, errQueueFull) {
		t.Fatalf("err = %v, want errQueueFull", err)
	}
}

// TestAdmitterDeadline: a queued request that never fits is rejected
// once the wait deadline passes.
func TestAdmitterDeadline(t *testing.T) {
	a := testAdmitter(100, 4, 20*time.Millisecond)
	if _, err := a.admit(100); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	queued, err := a.admit(1)
	if !errors.Is(err, errQueueWait) {
		t.Fatalf("err = %v, want errQueueWait", err)
	}
	if queued < 20*time.Millisecond {
		t.Fatalf("reported queue time %v shorter than the deadline", queued)
	}
	if time.Since(begin) > 5*time.Second {
		t.Fatal("deadline did not bound the wait")
	}
	if len(a.queue) != 0 {
		t.Fatalf("expired waiter still queued (%d)", len(a.queue))
	}
}

// TestAdmitterFIFO: waiters are admitted strictly in arrival order as
// budget frees up.
func TestAdmitterFIFO(t *testing.T) {
	a := testAdmitter(100, 16, 5*time.Second)
	if _, err := a.admit(100); err != nil {
		t.Fatal(err)
	}

	const n = 5
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	start := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger arrivals so queue order is deterministic.
			<-start
			if _, err := a.admit(100); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.release(100)
		}()
		start <- struct{}{}
		for {
			a.mu.Lock()
			parked := len(a.queue) == i+1
			a.mu.Unlock()
			if parked {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.release(100)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want FIFO", order)
		}
	}
}

// TestAdmitterConcurrentChurn hammers the semaphore from many
// goroutines; under -race this is the data-race check, and the budget
// invariant must hold at every admission.
func TestAdmitterConcurrentChurn(t *testing.T) {
	a := testAdmitter(100, 64, 5*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := a.admit(30); err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				a.mu.Lock()
				over := a.inUse > a.budget
				a.mu.Unlock()
				if over {
					t.Error("budget exceeded")
				}
				a.release(30)
			}
		}()
	}
	wg.Wait()
	if a.inUse != 0 {
		t.Fatalf("inUse after churn = %d, want 0", a.inUse)
	}
}

// TestFootprintBlockFamiliesHoldNoWorkerState: HHNL and LSH allocate no
// inner accumulator, so they are charged the same — under both spellings
// of the approximate join — while an accumulating family is charged its
// accumulator on top.
func TestFootprintBlockFamiliesHoldNoWorkerState(t *testing.T) {
	s, hs := testServer(t, 4096)
	block := s.footprintBytes("hhnl", 5)
	if got := s.footprintBytes("lsh", 5); got != block {
		t.Errorf("footprint(lsh) = %d, want the HHNL charge %d", got, block)
	}
	if vvm := s.footprintBytes("vvm", 5); vvm <= block {
		t.Errorf("footprint(vvm) = %d, want more than the HHNL charge %d", vvm, block)
	}
	for _, path := range []string{"/join?alg=lsh&lambda=5&show=0", "/join?mode=lsh&lambda=5&show=0"} {
		status, body := get(t, hs, path)
		if status != 200 {
			t.Fatalf("GET %s: status %d: %s", path, status, body)
		}
		var j joinResponse
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		charged := ""
		for _, sp := range fetchTrace(t, hs, j.TraceID).Spans {
			for _, a := range sp.Attrs {
				if a.Key == "queue.cost_bytes" {
					charged = a.Value
				}
			}
		}
		if charged != strconv.FormatInt(block, 10) {
			t.Errorf("GET %s: admission charged %s bytes, want %d", path, charged, block)
		}
	}
}
