package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/signature"
	"textjoin/internal/telemetry"
)

// Every join algorithm must propagate storage errors instead of masking
// them or returning partial results, and an attached collector must count
// the storage-level fault against the file it hit.
func TestJoinsPropagateStorageFaults(t *testing.T) {
	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			e := buildEnv(t, 31, 20, 20, 40, 10, 128)
			tel := telemetry.New()
			e.disk.SetCollector(tel)
			// Fail the 10th read of any file once the join starts.
			e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 10, Repeat: true})
			res, _, err := Join(alg, e.inputs(), Options{Lambda: 3, MemoryPages: 100, Telemetry: tel})
			if !errors.Is(err, iosim.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			if res != nil {
				t.Errorf("partial results returned alongside error")
			}
			var faults int64
			for _, c := range tel.Snapshot().Counters {
				if strings.HasPrefix(c.Name, "io.file.") && strings.HasSuffix(c.Name, ".faults") {
					faults += c.Value
				}
			}
			if faults == 0 {
				t.Error("no io.file.<file>.faults counter on the collector")
			}
		})
	}
}

func TestBackwardHHNLPropagatesFaults(t *testing.T) {
	e := buildEnv(t, 32, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 5, Repeat: true})
	_, _, err := Join(HHNL, e.inputs(), Options{Lambda: 3, MemoryPages: 100, Backward: true})
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestHVNLPropagatesBTreeFaults(t *testing.T) {
	e := buildEnv(t, 33, 20, 20, 40, 10, 128)
	// Fail reads of the B+tree file specifically: LoadIndex must fail.
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c1.bt", Repeat: true})
	_, _, err := Join(HVNL, e.inputs(), Options{Lambda: 3, MemoryPages: 100})
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestVVMPropagatesSecondFileFaults(t *testing.T) {
	e := buildEnv(t, 34, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c2.inv", FailAfterReads: 1, Repeat: true})
	_, _, err := Join(VVM, e.inputs(), Options{Lambda: 3, MemoryPages: 100})
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want or the deadline passes, absorbing scheduler lag without sleeps of
// fixed length.
func waitGoroutines(tb testing.TB, want int) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		tb.Errorf("goroutine leak: %d running, want <= %d", n, want)
	}
}

// TestFanOutLeavesNoWorkersOnFailure walks every way a join can fail — a
// storage fault while the resident side fills, one mid-scan/probe/merge,
// and a sidecar that does not match its collection — and requires the
// error, no partial results, and the goroutine count back at its pre-call
// value: a join leaves no worker goroutine behind, because it starts none.
func TestFanOutLeavesNoWorkersOnFailure(t *testing.T) {
	type failure struct {
		name  string
		fault iosim.FaultPlan
		// stale swaps in a sidecar built over the wrong collection.
		stale bool
	}
	families := []struct {
		alg   Algorithm
		mem   int64
		cases []failure
	}{
		{HHNL, 100, []failure{
			{name: "fill", fault: iosim.FaultPlan{FailFile: "c2", Repeat: true}},
			{name: "inner-scan", fault: iosim.FaultPlan{FailFile: "c1", FailAfterReads: 3, Repeat: true}},
			{name: "stale-prefilter", stale: true},
		}},
		// A tight budget keeps HVNL out of the preload regime, so the
		// entry-file fault lands on a demand fetch mid-sweep.
		{HVNL, 12, []failure{
			{name: "outer-sweep", fault: iosim.FaultPlan{FailFile: "c2", FailAfterReads: 2, Repeat: true}},
			{name: "probe", fault: iosim.FaultPlan{FailFile: "c1.inv", FailAfterReads: 4, Repeat: true}},
			{name: "stale-prefilter", stale: true},
		}},
		{VVM, 100, []failure{
			{name: "merge-scan-first", fault: iosim.FaultPlan{FailFile: "c1.inv", Repeat: true}},
			{name: "merge-scan", fault: iosim.FaultPlan{FailFile: "c2.inv", FailAfterReads: 2, Repeat: true}},
		}},
		{LSH, 100, []failure{
			{name: "fill", fault: iosim.FaultPlan{FailFile: "c2", Repeat: true}},
			{name: "verify-scan", fault: iosim.FaultPlan{FailFile: "c1", FailAfterReads: 2, Repeat: true}},
			{name: "stale-sidecar", stale: true},
		}},
	}
	for _, fam := range families {
		for _, fc := range fam.cases {
			fam, fc := fam, fc
			t.Run(fam.alg.String()+"/"+fc.name, func(t *testing.T) {
				e := buildEnv(t, 38, 30, 24, 40, 10, 128)
				opts := Options{Lambda: 3, MemoryPages: fam.mem}
				sidecarOver := e.c1
				if fc.stale {
					sidecarOver = e.c2 // 24 documents where the inner side has 30
				}
				if fam.alg == LSH {
					f, err := e.disk.Create("side.lsh")
					if err != nil {
						t.Fatal(err)
					}
					if opts.LSH, err = lsh.Build(sidecarOver, f, lshDiffConfig); err != nil {
						t.Fatal(err)
					}
				} else if fc.stale {
					f, err := e.disk.Create("side.sig")
					if err != nil {
						t.Fatal(err)
					}
					sc, err := signature.Build(sidecarOver, f, signature.Config{})
					if err != nil {
						t.Fatal(err)
					}
					opts.Prefilter = &Prefilter{Inner: sc}
				}
				e.disk.InjectFaults(fc.fault)
				before := runtime.NumGoroutine()
				res, st, err := Join(fam.alg, e.inputs(), opts)
				if fc.stale {
					if err == nil || errors.Is(err, iosim.ErrInjected) {
						t.Fatalf("err = %v, want a sidecar mismatch", err)
					}
				} else if !errors.Is(err, iosim.ErrInjected) {
					t.Fatalf("err = %v, want ErrInjected", err)
				}
				if res != nil || st != nil {
					t.Error("partial results returned alongside error")
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// A fault that fires during one run must not poison a later run after the
// plan is disarmed (no hidden state in the algorithms).
func TestJoinRecoversAfterDisarm(t *testing.T) {
	e := buildEnv(t, 35, 15, 15, 30, 8, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 3, Repeat: true})
	if _, _, err := Join(HHNL, e.inputs(), Options{Lambda: 3, MemoryPages: 100}); err == nil {
		t.Fatal("expected injected failure")
	}
	e.disk.InjectFaults(iosim.FaultPlan{})
	res, _, err := Join(HHNL, e.inputs(), Options{Lambda: 3, MemoryPages: 100})
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	want := reference(t, e.c2, e.c1, 3, rawScorer(t))
	if err := sameResults(res, want); err != nil {
		t.Fatal(err)
	}
}
