package main

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
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

// TestAdmitterClampsOversized: a charge beyond the whole budget is
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

// TestAdmitterDeadlineWakesNext: when a head waiter that does not fit
// gives up, a waiter behind it that fits is admitted then, not left
// parked until its own deadline.
func TestAdmitterDeadlineWakesNext(t *testing.T) {
	a := testAdmitter(100, 4, 100*time.Millisecond)
	if _, err := a.admit(60); err != nil {
		t.Fatal(err)
	}
	head := make(chan error, 1)
	go func() {
		_, err := a.admit(50)
		head <- err
	}()
	for {
		a.mu.Lock()
		parked := len(a.queue) == 1
		a.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Park behind the head well before its deadline, so this waiter's own
	// deadline is 50 ms after the head's.
	time.Sleep(50 * time.Millisecond)
	if _, err := a.admit(10); err != nil {
		t.Fatalf("a waiter that fits once the head left: %v", err)
	}
	if err := <-head; !errors.Is(err, errQueueWait) {
		t.Fatalf("head waiter: err = %v, want errQueueWait", err)
	}
	a.release(10)
	a.release(60)
	if a.inUse != 0 || len(a.queue) != 0 {
		t.Fatalf("inUse %d, queue %d after release, want both 0", a.inUse, len(a.queue))
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

// TestAdmissionChargesThePlan: every request is charged exactly the
// bytes its plan holds — the in-process plan's PeakBytes, which its plan
// span reports too — auto is charged for the algorithm it ran, and both
// spellings of the approximate join are one plan.
func TestAdmissionChargesThePlan(t *testing.T) {
	s, hs := testServer(t, 512)
	in := textjoin.Inputs{Outer: s.c2, Inner: s.c1, InnerInv: s.inv1, OuterInv: s.inv2}
	charged := map[string]int64{}
	for _, kind := range []struct{ query, alg string }{
		{"alg=hhnl", "hhnl"}, {"alg=hvnl", "hvnl"}, {"alg=vvm", "vvm"},
		{"alg=lsh", "lsh"}, {"mode=lsh", "lsh"}, {"alg=auto", "auto"},
	} {
		status, body := get(t, hs, "/join?show=0&lambda=5&"+kind.query)
		if status != 200 {
			t.Fatalf("%s: status %d: %s", kind.query, status, body)
		}
		var j joinResponse
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		attrs := map[string]string{}
		for _, sp := range fetchTrace(t, hs, j.TraceID).Spans {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
		}
		opts := textjoin.Options{Lambda: 5, MemoryPages: s.cfg.MemoryPages}
		if kind.alg == "lsh" {
			opts.LSH = s.lsh1
		}
		alg, err := textjoin.ParseAlgorithm(kind.alg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := textjoin.Plan(alg, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := strconv.FormatInt(dec.PeakBytes, 10)
		if attrs["queue.cost_bytes"] != want || attrs["plan.peak_bytes"] != want {
			t.Errorf("%s: charged %s bytes, plan span %s, want the plan's %s",
				kind.query, attrs["queue.cost_bytes"], attrs["plan.peak_bytes"], want)
		}
		if ran := strings.ToLower(j.Algorithm); kind.alg == "auto" {
			if ran == "auto" || charged[ran] != dec.PeakBytes {
				t.Errorf("auto ran %s and was charged %d bytes, want that plan's %d", ran, dec.PeakBytes, charged[ran])
			}
		} else if ran != kind.alg {
			t.Errorf("%s ran %s", kind.query, ran)
		} else if c, ok := charged[ran]; ok && c != dec.PeakBytes {
			t.Errorf("%s charged %d bytes, the other spelling %d", kind.query, dec.PeakBytes, c)
		}
		charged[kind.alg] = dec.PeakBytes
	}
}
