package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"textjoin"
)

func TestMain(m *testing.M) {
	root, err := filepath.Abs("..")
	if err != nil {
		panic(err)
	}
	repoRoot = root
	os.Exit(m.Run())
}

func TestOpListIsFixedBySeed(t *testing.T) {
	kinds := (&served{}).kinds()
	a, b := opList(kinds, 14, 3), opList(kinds, 14, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different lists")
	}
	if reflect.DeepEqual(a, opList(kinds, 14, 4)) {
		t.Error("another seed gave the same order")
	}
	count := map[int]int{}
	for _, k := range a {
		if kinds[k].solo {
			t.Fatalf("solo kind %s is in the list", kinds[k].name)
		}
		count[k]++
	}
	for k, n := range count {
		if n != 14 {
			t.Errorf("kind %s listed %d times, want 14", kinds[k].name, n)
		}
	}
	if len(count) != 6 {
		t.Errorf("%d kinds listed, want 6", len(count))
	}
}

func TestRoundsScaleWithSeconds(t *testing.T) {
	if n := roundsFor(hhnlScan, 20); n != 58 {
		t.Errorf("hhnl_scan at 20 s: %d rounds, want 58", n)
	}
	if n := roundsFor(vvmMerge, 0.1); n != 1 {
		t.Errorf("a run has at least one round, got %d", n)
	}
}

func value(t *testing.T, o *outcome, name string) float64 {
	t.Helper()
	for _, m := range o.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("%s: no metric %s", o.workload, name)
	return 0
}

func TestSeedFixesInputs(t *testing.T) {
	a, err := endToEnd(hhnlScan, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := endToEnd(hhnlScan, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ca, cb := value(t, a, "io_cost_per_op"), value(t, b, "io_cost_per_op"); ca != cb || ca == 0 {
		t.Errorf("io_cost_per_op %v and %v on the same seed", ca, cb)
	}
	w3, err := buildWorld(96, 3, structures{})
	if err != nil {
		t.Fatal(err)
	}
	w4, err := buildWorld(96, 4, structures{})
	if err != nil {
		t.Fatal(err)
	}
	if w3.c1.Stats().TotalCells == w4.c1.Stats().TotalCells && w3.c2.Stats().TotalCells == w4.c2.Stats().TotalCells {
		t.Error("seeds 3 and 4 generated corpora of the same size")
	}
}

// TestSmoke runs every workload once end to end and once traced, one
// round of one pass, and holds the printed metric names to
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	var contract struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	same := func(o *outcome, want map[string]string) {
		t.Helper()
		got := map[string]string{}
		for _, m := range o.metrics {
			got[m.name] = m.unit
		}
		if !reflect.DeepEqual(got, want) {
			var diff []string
			for name, u := range got {
				if want[name] != u {
					diff = append(diff, "+"+name+" "+u)
				}
			}
			for name, u := range want {
				if got[name] != u {
					diff = append(diff, "-"+name+" "+u)
				}
			}
			sort.Strings(diff)
			t.Errorf("%s prints other metrics than BENCHMARK.json lists: %v", o.workload, diff)
		}
	}
	spans := t.TempDir()
	for _, s := range specs() {
		if s.prepare != nil {
			if err := s.prepare(); err != nil {
				t.Fatal(err)
			}
		}
		e2e, err := endToEnd(s, 2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e2e.failed != 0 || e2e.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", s.name, e2e.failed, e2e.attempted, e2e.firstFailure)
		}
		same(e2e, units(contract.EndToEnd))
		for _, m := range e2e.metrics {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", s.name, m.name, m.value)
			}
		}
		if r := value(t, e2e, "recall"); s.name != "serve_mix" && r != 1 {
			t.Errorf("%s: recall %v from an exact join", s.name, r)
		}

		layers, err := perLayer(s, 2, 1, spans)
		if err != nil {
			t.Fatal(err)
		}
		if layers.failed != 0 {
			t.Errorf("%s traced: %d operations failed: %v", s.name, layers.failed, layers.firstFailure)
		}
		same(layers, units(contract.PerLayer))
		var file []span
		data, err := os.ReadFile(filepath.Join(spans, s.name+".spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		ns, n := selfByName(file)
		if n["drive"] != 1 || n["harness.check"] == 0 || ns["codec.DecodeRecordInto"] <= 0 {
			t.Errorf("%s: spans file lacks the expected spans: %v", s.name, n)
		}
	}
}

// A wrong answer must be counted, not averaged away.
func TestMismatchIsAFailure(t *testing.T) {
	fx, err := hhnlScan.setup(2)
	if err != nil {
		t.Fatal(err)
	}
	f := fx.(*inproc)
	results, _, err := textjoin.Join(f.alg, f.in, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.verify(results); err != nil || !v.ok() || v.hit != v.want {
		t.Fatalf("right answer rejected: %+v %v", v, err)
	}
	results[5].Matches[0].Sim++
	if v, _ := f.verify(results); v.ok() {
		t.Error("a changed similarity passed the check")
	}
	results[5].Matches[0].Sim--
	results[7].Matches = results[7].Matches[:len(results[7].Matches)-1]
	if v, _ := f.verify(results); v.ok() {
		t.Error("a missing match passed the exact check")
	}
	if s := (sample{v: verdict{bad: "x"}}); !s.failed() {
		t.Error("a bad verdict is not a failed sample")
	}
}
