package textjoin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/costmodel"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
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
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(5))
	inner, err := corpus.GenerateOn(d, "inner", corpus.WSJ.Scaled(512), 11)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := corpus.GenerateOn(d, "outer", corpus.DOE.Scaled(512), 12)
	if err != nil {
		t.Fatal(err)
	}
	mkInv := func(c *Collection, prefix string) *invfile.InvertedFile {
		ef, _ := d.Create(prefix + ".inv")
		tf, _ := d.Create(prefix + ".bt")
		inv, err := invfile.Build(c, ef, tf)
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}
	innerInv := mkInv(inner, "inner")
	outerInv := mkInv(outer, "outer")
	d.ResetStats()

	in := core.Inputs{Outer: outer, Inner: inner, InnerInv: innerInv, OuterInv: outerInv}
	opts := core.Options{Lambda: 10, MemoryPages: 64}
	fanned := opts
	fanned.Workers = 4

	type variant struct {
		name string
		run  func() ([]core.Result, *core.Stats, error)
	}
	variants := []variant{
		{"hhnl", func() ([]core.Result, *core.Stats, error) { return core.Join(core.HHNL, in, opts) }},
		{"hhnl-backward", func() ([]core.Result, *core.Stats, error) {
			o := opts
			o.Backward = true
			return core.Join(core.HHNL, in, o)
		}},
		{"hhnl-w4", func() ([]core.Result, *core.Stats, error) { return core.Join(core.HHNL, in, fanned) }},
		{"hvnl", func() ([]core.Result, *core.Stats, error) { return core.Join(core.HVNL, in, opts) }},
		{"vvm", func() ([]core.Result, *core.Stats, error) { return core.Join(core.VVM, in, opts) }},
		{"vvm-w4", func() ([]core.Result, *core.Stats, error) { return core.Join(core.VVM, in, fanned) }},
	}
	var baseline []core.Result
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
	subIn := core.Inputs{Outer: sub, Inner: inner, InnerInv: innerInv, OuterInv: outerInv}
	var subBase []core.Result
	for _, alg := range []core.Algorithm{core.HHNL, core.HVNL, core.VVM} {
		res, _, err := core.Join(alg, subIn, opts)
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
	fullByOuter := make(map[uint32][]core.Match, len(baseline))
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
	res, st, dec, err := core.JoinIntegrated(in, opts)
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

// TestIntegrationMeasuredCostBounds checks, across several profiles and
// memory budgets, that measured join costs stay within a sane envelope of
// the analytic model evaluated at the corpora's own statistics.
func TestIntegrationMeasuredCostBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, mem := range []int64{60, 200, 1000} {
		res, err := simulateMeasured(corpus.WSJ, mem)
		if err != nil {
			t.Fatalf("mem=%d: %v", mem, err)
		}
		for _, row := range res {
			if row.measured <= 0 {
				t.Errorf("mem=%d %s: non-positive measured cost", mem, row.alg)
			}
			if !math.IsInf(row.modelSeq, 1) {
				ratio := row.measured / row.modelSeq
				if ratio < 0.1 || ratio > 20 {
					t.Errorf("mem=%d %s: measured/model = %.2f outside [0.1, 20]", mem, row.alg, ratio)
				}
			}
		}
	}
}

type measuredRow struct {
	alg      string
	modelSeq float64
	measured float64
}

func simulateMeasured(p corpus.Profile, mem int64) ([]measuredRow, error) {
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(5))
	c1, err := corpus.GenerateOn(d, "c1", p.Scaled(512), 1)
	if err != nil {
		return nil, err
	}
	c2, err := corpus.GenerateOn(d, "c2", p.Scaled(512), 2)
	if err != nil {
		return nil, err
	}
	mkInv := func(c *Collection, prefix string) (*invfile.InvertedFile, error) {
		ef, err := d.Create(prefix + ".inv")
		if err != nil {
			return nil, err
		}
		tf, err := d.Create(prefix + ".bt")
		if err != nil {
			return nil, err
		}
		return invfile.Build(c, ef, tf)
	}
	inv1, err := mkInv(c1, "c1")
	if err != nil {
		return nil, err
	}
	inv2, err := mkInv(c2, "c2")
	if err != nil {
		return nil, err
	}
	d.ResetStats()
	in := core.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	opts := core.Options{Lambda: 20, MemoryPages: mem}
	mi, err := core.ModelInput(in)
	if err != nil {
		return nil, err
	}
	sys := core.ModelSystem(in, opts)
	q := QueryParams{Lambda: 20, Delta: 0.1}

	var rows []measuredRow
	for _, alg := range []core.Algorithm{core.HHNL, core.HVNL, core.VVM} {
		_, st, err := core.Join(alg, in, opts)
		if err != nil {
			return nil, err
		}
		var model float64
		switch alg {
		case core.HHNL:
			model = costmodel.HHNLSeq(mi, sys, q)
		case core.HVNL:
			model = costmodel.HVNLSeq(mi, sys, q)
		case core.VVM:
			model = costmodel.VVMSeq(mi, sys, q)
		}
		rows = append(rows, measuredRow{alg: alg.String(), modelSeq: model, measured: st.Cost})
	}
	return rows, nil
}

func diffResults(a, b []core.Result) error {
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
