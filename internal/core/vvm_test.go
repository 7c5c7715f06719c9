package core

import "testing"

// TestVVMLargestPassIsLast holds what Store.Reserve relies on: the last
// pass of the partition is a largest one, for every N2 and pass count, so
// a matrix sized for the largest pass is one the join still reaches.
func TestVVMLargestPassIsLast(t *testing.T) {
	if got := (memory{}).largest(0); got != 0 {
		t.Fatalf("no outer documents: largest %d, want 0", got)
	}
	for n := 1; n <= 60; n++ {
		for passes := 1; passes <= n; passes++ {
			m, ids := memory{passes: passes}, make([]uint32, n)
			most := 0
			for p := range passes {
				most = max(most, len(m.rangeIDs(ids, p)))
			}
			if got := m.largest(n); got != most {
				t.Fatalf("%d documents in %d passes: largest %d, want %d", n, passes, got, most)
			}
		}
	}
}
