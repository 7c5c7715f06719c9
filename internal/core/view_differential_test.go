package core

import (
	"fmt"
	"sync"
	"testing"

	"textjoin/internal/signature"
)

// This file extends the differential harness to the concurrency axis:
// any number of view-bound joins running at once must each produce
// results and per-request Stats byte-identical to the same request run
// serially through a view of its own. That is the contract the serving
// layer relies on to admit overlapping /join requests.

// viewRequest is one simulated /join request: a join entry point plus
// the per-request option knobs the server varies (prefilter on/off).
type viewRequest struct {
	name      string
	alg       Algorithm
	prefilter bool
}

// viewRequests is the request mix: every harness family twice plus a
// prefiltered HHNL run — nine requests, past the N>=8 the serving layer
// needs.
func viewRequests() []viewRequest {
	var reqs []viewRequest
	for round := 1; round <= 2; round++ {
		for _, alg := range diffFamilies {
			reqs = append(reqs, viewRequest{name: fmt.Sprintf("%v-%d", alg, round), alg: alg})
		}
	}
	return append(reqs, viewRequest{name: "HHNL-pf", alg: HHNL, prefilter: true})
}

// preloadIndexes forces both inverted files' one-time term-index loads
// (normally triggered by the first WithView and charged to the shared
// files once) and then clears the disk counters, so stats measured
// afterwards cover pure join I/O in every pass being compared.
func preloadIndexes(tb testing.TB, e *env) {
	tb.Helper()
	if _, err := e.inv1.LoadIndex(); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.inv2.LoadIndex(); err != nil {
		tb.Fatal(err)
	}
	e.disk.ResetStats()
}

// runOnView executes one request on a fresh view of the env's disk and
// returns its results and Stats. The view is closed before returning,
// so its counters have merged into the shared disk by the time the
// caller inspects aggregate stats.
func runOnView(e *env, req viewRequest, opts Options, pf *Prefilter) ([]Result, *Stats, error) {
	v := e.disk.View()
	defer v.Close()
	in, err := e.inputs().WithView(v)
	if err != nil {
		return nil, nil, fmt.Errorf("binding view: %w", err)
	}
	if req.prefilter {
		opts.Prefilter = pf
	}
	return Join(req.alg, in, opts)
}

// TestConcurrentViewsMatchSerial is the tentpole check: on every shape,
// the full request mix run concurrently (each request on its own view)
// must return results and per-request Stats identical to the same
// requests run one at a time; on multi-pass every request's join splits.
// Run under -race this also proves the view-bound read path is data-race
// free.
func TestConcurrentViewsMatchSerial(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			e := buildDiffEnv(t, shape, 1)
			pf := buildTestPrefilter(t, e, signature.Config{})
			opts := shape.options()
			opts.LSH = buildDiffLSH(t, e, lshDiffConfig)
			preloadIndexes(t, e)
			reqs := viewRequests()

			// Serial reference pass: one view per request, in order.
			serialBase := e.disk.Stats()
			wantRes := make([][]Result, len(reqs))
			wantSt := make([]*Stats, len(reqs))
			for i, req := range reqs {
				res, st, err := runOnView(e, req, opts, pf)
				if err != nil {
					t.Fatalf("%s serial: %v", req.name, err)
				}
				if shape.name == "multi-pass" && !splitJoin(st) {
					t.Errorf("%s: %d passes, %d evictions: the multi-pass shape must split", req.name, st.Passes, st.Cache.Evictions)
				}
				wantRes[i], wantSt[i] = res, st
			}
			serialDelta := e.disk.Stats().Sub(serialBase)

			// Concurrent pass: every request at once, fresh views.
			concBase := e.disk.Stats()
			gotRes := make([][]Result, len(reqs))
			gotSt := make([]*Stats, len(reqs))
			errs := make([]error, len(reqs))
			var wg sync.WaitGroup
			for i, req := range reqs {
				i, req := i, req
				wg.Add(1)
				go func() {
					defer wg.Done()
					gotRes[i], gotSt[i], errs[i] = runOnView(e, req, opts, pf)
				}()
			}
			wg.Wait()
			concDelta := e.disk.Stats().Sub(concBase)

			for i, req := range reqs {
				if errs[i] != nil {
					t.Fatalf("%s concurrent: %v", req.name, errs[i])
				}
				if err := exactSameResults(wantRes[i], gotRes[i]); err != nil {
					t.Errorf("%s: concurrent results diverge: %v", req.name, err)
				}
				if *gotSt[i] != *wantSt[i] {
					t.Errorf("%s: concurrent Stats diverge:\nserial:     %+v\nconcurrent: %+v",
						req.name, *wantSt[i], *gotSt[i])
				}
			}

			// The merged disk accounting must not lose or invent a
			// single read: both passes did the same work, so the
			// aggregate deltas agree exactly.
			if concDelta != serialDelta {
				t.Errorf("aggregate disk stats diverge:\nserial:     %+v\nconcurrent: %+v",
					serialDelta, concDelta)
			}
		})
	}
}

// TestViewBindingIsolatesSharedHeads verifies that a join on a bound
// view leaves the shared per-file heads untouched: a serial join on the
// base inputs afterwards sees pristine head positions, exactly as if
// the view-bound join had never happened.
func TestViewBindingIsolatesSharedHeads(t *testing.T) {
	shape := diffShapes()[0]

	// Reference: serial join on a fresh env's shared files.
	ref := buildDiffEnv(t, shape, 1)
	preloadIndexes(t, ref)
	wantRes, wantSt, err := Join(HVNL, ref.inputs(), shape.options())
	if err != nil {
		t.Fatal(err)
	}

	// Same join on a second env, but after a view-bound join has
	// already run (and closed). Head positions must be unchanged.
	e := buildDiffEnv(t, shape, 1)
	preloadIndexes(t, e)
	if _, _, err := runOnView(e, viewRequest{name: "warm", alg: VVM}, shape.options(), nil); err != nil {
		t.Fatal(err)
	}
	e.disk.ResetStats()
	gotRes, gotSt, err := Join(HVNL, e.inputs(), shape.options())
	if err != nil {
		t.Fatal(err)
	}
	if err := exactSameResults(wantRes, gotRes); err != nil {
		t.Fatalf("results changed after view-bound join: %v", err)
	}
	if *gotSt != *wantSt {
		t.Fatalf("Stats changed after view-bound join:\nwant %+v\ngot  %+v", *wantSt, *gotSt)
	}
}
