package reqtrace_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"textjoin"
	"textjoin/internal/reqtrace"
)

// TestObservePhases: the histograms textjoin.ObservePhases derives from a
// finished trace hold one observation per span, under the span's phase,
// with the span's own duration — two spans of one phase are two
// observations. On the trace of a real join of each exact family, the
// histograms count exactly its spans, of more than one phase.
func TestObservePhases(t *testing.T) {
	tick := time.Unix(1700000000, 0)
	clock := func() time.Time { tick = tick.Add(time.Millisecond); return tick }
	root := reqtrace.NewTracer(3, clock).StartTrace("join")
	exec := root.StartChild("exec", "join hhnl")
	for range 2 {
		exec.StartChild(reqtrace.PhaseScan, "hhnl.fill-batch").End()
	}
	exec.End()
	root.StartChild("reply", "encode").End()
	root.End()

	tel := textjoin.NewTelemetry()
	textjoin.ObservePhases(tel, root)
	var out strings.Builder
	if err := textjoin.NewMetricsExporter(tel, nil).WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	count, sum := map[string]int64{}, map[string]int64{}
	for _, sp := range root.Data().Spans {
		count[sp.Phase]++
		sum[sp.Phase] += sp.DurNanos
	}
	if len(count) != 4 || count[reqtrace.PhaseScan] != 2 {
		t.Fatalf("trace phases %v, want request, exec, two scans and reply", count)
	}
	if got := strings.Count(out.String(), "textjoin_phase_ns_count{"); got != len(count) {
		t.Errorf("%d phase series, want one per phase:\n%s", got, out.String())
	}
	for phase, n := range count {
		series := fmt.Sprintf(`textjoin_phase_ns{phase=%q}`, phase)
		if got := tel.Value(series); got != n {
			t.Errorf("%s counts %d, the trace has %d such spans", series, got, n)
		}
		if line := fmt.Sprintf("textjoin_phase_ns_sum{phase=%q} %d\n", phase, sum[phase]); !strings.Contains(out.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}

	ws := textjoin.NewWorkspace()
	c1, err := ws.GenerateProfile("c1", "wsj", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.GenerateProfile("c2", "fr", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		t.Fatal(err)
	}
	in := textjoin.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	for _, alg := range []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL, textjoin.VVM} {
		root := textjoin.NewRequestTracer(1).StartTrace(alg.String())
		if _, _, err := textjoin.Join(alg, in, textjoin.Options{Lambda: 5, MemoryPages: 20, Trace: root}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		root.End()
		tel := textjoin.NewTelemetry()
		textjoin.ObservePhases(tel, root)
		count := map[string]int64{}
		for _, sp := range root.Data().Spans {
			count[sp.Phase]++
		}
		if len(count) < 2 {
			t.Errorf("%v: trace phases %v, want the join's phases under the root", alg, count)
		}
		for phase, n := range count {
			series := fmt.Sprintf(`textjoin_phase_ns{phase=%q}`, phase)
			if got := tel.Value(series); got != n {
				t.Errorf("%v: %s counts %d, the trace has %d such spans", alg, series, got, n)
			}
		}
	}
}
