package textjoin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestIntegrationFullPipeline drives the complete system at a few hundred
// documents: synthetic corpora → collections → inverted files → all five
// join execution paths (three serial algorithms, two parallel variants) →
// clustered reordering → selection subsets → the query layer — asserting
// cross-consistency everywhere.
func TestIntegrationFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ws := NewWorkspace()
	inner, err := ws.GenerateProfile("inner", "wsj", 512, 11)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := ws.GenerateProfile("outer", "doe", 512, 12)
	if err != nil {
		t.Fatal(err)
	}
	innerInv, err := ws.BuildInvertedFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	outerInv, err := ws.BuildInvertedFile(outer)
	if err != nil {
		t.Fatal(err)
	}
	ws.ResetIOStats()

	in := Inputs{Outer: outer, Inner: inner, InnerInv: innerInv, OuterInv: outerInv}
	opts := Options{Lambda: 10, MemoryPages: 64}

	type variant struct {
		name string
		run  func() ([]Result, *JoinStats, error)
	}
	variants := []variant{
		{"hhnl", func() ([]Result, *JoinStats, error) { return Join(HHNL, in, opts) }},
		{"hhnl-backward", func() ([]Result, *JoinStats, error) {
			o := opts
			o.Backward = true
			return Join(HHNL, in, o)
		}},
		{"hvnl", func() ([]Result, *JoinStats, error) { return Join(HVNL, in, opts) }},
		{"vvm", func() ([]Result, *JoinStats, error) { return Join(VVM, in, opts) }},
	}
	var baseline []Result
	for _, v := range variants {
		res, st, err := v.run()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if int64(len(res)) != outer.NumDocs() {
			t.Fatalf("%s: %d results, want %d", v.name, len(res), outer.NumDocs())
		}
		if st.Cost <= 0 {
			t.Errorf("%s: cost %v", v.name, st.Cost)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if err := diffResults(baseline, res); err != nil {
			t.Fatalf("%s vs hhnl: %v", v.name, err)
		}
	}

	// Selection subset: all algorithms agree on the reduced join too.
	r := rand.New(rand.NewSource(5))
	var ids []uint32
	for i := int64(0); i < outer.NumDocs(); i++ {
		if r.Intn(4) == 0 {
			ids = append(ids, uint32(i))
		}
	}
	sub, err := outer.Subset(ids)
	if err != nil {
		t.Fatal(err)
	}
	subIn := Inputs{Outer: sub, Inner: inner, InnerInv: innerInv, OuterInv: outerInv}
	var subBase []Result
	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		res, _, err := Join(alg, subIn, opts)
		if err != nil {
			t.Fatalf("subset %v: %v", alg, err)
		}
		if len(res) != len(ids) {
			t.Fatalf("subset %v: %d results, want %d", alg, len(res), len(ids))
		}
		if subBase == nil {
			subBase = res
		} else if err := diffResults(subBase, res); err != nil {
			t.Fatalf("subset %v: %v", alg, err)
		}
	}
	// Subset results are a sub-multiset of the full results.
	fullByOuter := make(map[uint32][]Match, len(baseline))
	for _, r := range baseline {
		fullByOuter[r.Outer] = r.Matches
	}
	for _, r := range subBase {
		full := fullByOuter[r.Outer]
		if len(full) != len(r.Matches) {
			t.Fatalf("subset outer %d: %d matches vs full %d", r.Outer, len(r.Matches), len(full))
		}
		for j := range full {
			if full[j].Doc != r.Matches[j].Doc {
				t.Fatalf("subset outer %d diverges from full join", r.Outer)
			}
		}
	}

	// Integrated choice runs and agrees with its own estimate ranking.
	res, st, dec, err := JoinIntegrated(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffResults(baseline, res); err != nil {
		t.Fatalf("integrated: %v", err)
	}
	if st.Algorithm != dec.Chosen {
		t.Errorf("integrated ran %v but chose %v", st.Algorithm, dec.Chosen)
	}
}

// TestIntegrationMeasuredCostBounds checks, across memory budgets from
// several passes to one, that measured join costs stay within a sane
// envelope of the planner's estimates — the analytic model evaluated at
// the corpora's own statistics. It is the one place a multi-pass budget
// meets the model; the single-pass cells are held exactly by
// cmd/benchreport's baseline.
func TestIntegrationMeasuredCostBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ws := NewWorkspace()
	c1, err := ws.GenerateProfile("c1", "wsj", 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.GenerateProfile("c2", "wsj", 512, 2)
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
	ws.ResetIOStats()
	in := Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	for _, mem := range []int64{60, 200, 1000} {
		opts := Options{Lambda: 20, MemoryPages: mem}
		dec, err := Choose(in, opts)
		if err != nil {
			t.Fatalf("mem=%d: %v", mem, err)
		}
		for _, est := range dec.Estimates {
			alg, err := ParseAlgorithm(est.Algorithm.String())
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := Join(alg, in, opts)
			if err != nil {
				t.Fatalf("mem=%d %v: %v", mem, alg, err)
			}
			if st.Cost <= 0 {
				t.Errorf("mem=%d %v: non-positive measured cost", mem, alg)
			}
			if !math.IsInf(est.Seq, 1) {
				ratio := st.Cost / est.Seq
				if ratio < 0.1 || ratio > 20 {
					t.Errorf("mem=%d %v: measured/model = %.2f outside [0.1, 20]", mem, alg, ratio)
				}
			}
		}
	}
}

func diffResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Outer != b[i].Outer {
			return fmt.Errorf("row %d outer %d vs %d", i, a[i].Outer, b[i].Outer)
		}
		if len(a[i].Matches) != len(b[i].Matches) {
			return fmt.Errorf("outer %d match counts %d vs %d", a[i].Outer, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			ma, mb := a[i].Matches[j], b[i].Matches[j]
			if ma.Doc != mb.Doc || math.Abs(ma.Sim-mb.Sim) > 1e-6 {
				return fmt.Errorf("outer %d match %d: %+v vs %+v", a[i].Outer, j, ma, mb)
			}
		}
	}
	return nil
}
