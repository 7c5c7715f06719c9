package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"textjoin/internal/iosim"
)

// TestVVMAllocationsDoNotGrowWithPasses is the go-test form of
// alloc_kb_per_op's bound on the benchmark's vvm_merge: each shard's store
// and trackers are built once per join and Reset from pass to pass. A store
// costs what its pass's rows cost, so the test holds the pass size fixed
// and varies how many passes there are: prefixes of one outer collection,
// two and six passes' worth of rows under one budget, on the dense corpus
// whose first pass promotes. The longer join's extra bytes — its extra
// result rows and one pair of scans per extra pass — must stay under one
// store's Bytes(); a store rebuilt per pass costs a store per extra pass.
func TestVVMAllocationsDoNotGrowWithPasses(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	d := iosim.NewDisk(iosim.WithPageSize(256))
	c1 := buildColl(t, d, "c1", randomDocs(r, 150, 70, 16))
	c2 := buildColl(t, d, "c2", randomDocs(r, 400, 70, 16))
	inv1, inv2 := buildInv(t, d, c1, "c1"), buildInv(t, d, c2, "c2")
	opts := Options{Lambda: 3, MemoryPages: 120, Delta: 1}.withDefaults()
	prefix := func(n int) Inputs {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i)
		}
		sub, err := c2.Subset(ids)
		if err != nil {
			t.Fatal(err)
		}
		return Inputs{Outer: sub, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	}
	plan, err := vvmPlan(prefix(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Rows per pass under M; at six or more, ⌈SM/M⌉ is exactly 2 and 6.
	rows := int(float64(plan.passBytes) / (4 * opts.Delta * 150))
	if rows < 6 || 6*rows > 400 {
		t.Fatalf("M = %d bytes: %d rows per pass, want 6..66", plan.passBytes, rows)
	}
	allocated := func(passes int) (bytes uint64, st *Stats) {
		in := prefix(passes * rows)
		bytes = math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, st, err = Join(VVM, in, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if st.Passes != passes {
				t.Fatalf("%d rows: %d passes, want %d", passes*rows, st.Passes, passes)
			}
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return bytes, st
	}
	two, _ := allocated(2)
	six, st := allocated(6)
	t.Logf("%d rows per pass: 2 passes %d bytes, 6 passes %d, store %d", rows, two, six, st.PeakMemoryBytes)
	if int64(six)-int64(two) >= st.PeakMemoryBytes {
		t.Errorf("6 passes allocate %d bytes, 2 passes %d: %d more, want under one store's %d",
			six, two, int64(six)-int64(two), st.PeakMemoryBytes)
	}
}

// TestVVMLargestPassIsLast holds what Store.Reserve relies on: the last
// pass of the partition is a largest one, for every N2 and pass count, so
// a matrix sized for the largest pass is one the join still reaches.
func TestVVMLargestPassIsLast(t *testing.T) {
	if got := (&vvmPlanned{}).largest(); got != 0 {
		t.Fatalf("no outer documents: largest %d, want 0", got)
	}
	for n := 1; n <= 60; n++ {
		for passes := 1; passes <= n; passes++ {
			pl := &vvmPlanned{outerIDs: make([]uint32, n), passes: passes}
			most := 0
			for p := range passes {
				most = max(most, len(pl.rangeIDs(p)))
			}
			if got := pl.largest(); got != most {
				t.Fatalf("%d documents in %d passes: largest %d, want %d", n, passes, got, most)
			}
		}
	}
}
