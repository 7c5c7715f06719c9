package cluster

import (
	"math/rand"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
)

func TestIDMapHelpers(t *testing.T) {
	m := IDMap{2, 0, 1}
	if m.Orig(0) != 2 || m.Orig(2) != 1 {
		t.Errorf("Orig: %v", m)
	}
	inv := m.Inverse()
	for newID, orig := range m {
		if inv[orig] != uint32(newID) {
			t.Errorf("Inverse()[%d] = %d, want %d", orig, inv[orig], newID)
		}
	}
	ids := m.Apply([]uint32{0, 1, 2, 1})
	want := []uint32{2, 0, 1, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Apply = %v, want %v", ids, want)
		}
	}
}

// TestClusteredLayoutJoinRoundTrip proves the cluster-driven build path
// end to end: joining against the reordered collection with the
// id-remapped inverted file yields exactly the original join results
// once the new inner ids are translated back through the IDMap. λ
// exceeds the inner collection so every non-zero match is kept and the
// comparison is independent of id tie-breaking.
func TestClusteredLayoutJoinRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	gen := func(n int) []*document.Document {
		docs := make([]*document.Document, n)
		for i := range docs {
			counts := make(map[uint32]int)
			for j, l := 0, r.Intn(12)+2; j < l; j++ {
				counts[uint32(r.Intn(60))]++
			}
			docs[i] = document.New(uint32(i), counts)
		}
		return docs
	}
	build := func(d *iosim.Disk, name string, docs []*document.Document) *collection.Collection {
		t.Helper()
		f, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := collection.NewBuilder(name, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			if err := b.Add(doc); err != nil {
				t.Fatal(err)
			}
		}
		c, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	d := iosim.NewDisk(iosim.WithPageSize(256))
	c1 := build(d, "c1", gen(30))
	c2 := build(d, "c2", gen(20))
	ef, _ := d.Create("c1.inv")
	tf, _ := d.Create("c1.bt")
	inv1, err := invfile.Build(c1, ef, tf)
	if err != nil {
		t.Fatal(err)
	}

	opts := core.Options{Lambda: 40, MemoryPages: 300}
	want, _, err := core.Join(core.HVNL, core.Inputs{Outer: c2, Inner: c1, InnerInv: inv1}, opts)
	if err != nil {
		t.Fatal(err)
	}

	cf, _ := d.Create("c1clu")
	rc, idmap, err := Clustered("c1clu", cf, c1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := d.Create("c1clu.inv")
	rtf, _ := d.Create("c1clu.bt")
	inv := idmap.Inverse()
	rinv, err := invfile.BuildRemapped(inv1, func(orig uint32) uint32 { return inv[orig] }, ref, rtf)
	if err != nil {
		t.Fatal(err)
	}

	for _, join := range []struct {
		name string
		run  func(in core.Inputs) ([]core.Result, *core.Stats, error)
	}{
		{"hvnl", func(in core.Inputs) ([]core.Result, *core.Stats, error) { return core.Join(core.HVNL, in, opts) }},
		{"hhnl", func(in core.Inputs) ([]core.Result, *core.Stats, error) { return core.Join(core.HHNL, in, opts) }},
	} {
		got, _, err := join.run(core.Inputs{Outer: c2, Inner: rc, InnerInv: rinv})
		if err != nil {
			t.Fatalf("%s: %v", join.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", join.name, len(got), len(want))
		}
		for i, row := range got {
			if row.Outer != want[i].Outer {
				t.Fatalf("%s row %d: outer %d, want %d", join.name, i, row.Outer, want[i].Outer)
			}
			if len(row.Matches) != len(want[i].Matches) {
				t.Fatalf("%s outer %d: %d matches, want %d", join.name, row.Outer, len(row.Matches), len(want[i].Matches))
			}
			wantSims := map[uint32]float64{}
			for _, m := range want[i].Matches {
				wantSims[m.Doc] = m.Sim
			}
			for _, m := range row.Matches {
				orig := idmap.Orig(m.Doc)
				sim, ok := wantSims[orig]
				if !ok {
					t.Fatalf("%s outer %d: match for new id %d (orig %d) absent from original join", join.name, row.Outer, m.Doc, orig)
				}
				if sim != m.Sim {
					t.Fatalf("%s outer %d orig %d: sim %v, want %v", join.name, row.Outer, orig, m.Sim, sim)
				}
			}
		}
	}
}
