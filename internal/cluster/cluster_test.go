package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
)

func mkdoc(id uint32, terms ...uint32) *document.Document {
	counts := make(map[uint32]int, len(terms))
	for _, t := range terms {
		counts[t]++
	}
	return document.New(id, counts)
}

func TestOverlap(t *testing.T) {
	a := mkdoc(0, 1, 2, 3)
	b := mkdoc(1, 2, 3, 4)
	if got := Overlap(a, b); got != 2 {
		t.Errorf("Overlap = %d, want 2", got)
	}
}

func TestGreedyOrderEmpty(t *testing.T) {
	if got := GreedyOrder(nil); got != nil {
		t.Errorf("GreedyOrder(nil) = %v", got)
	}
}

func TestGreedyOrderIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	docs := make([]*document.Document, 30)
	for i := range docs {
		counts := make(map[uint32]int)
		for j := 0; j < r.Intn(10)+1; j++ {
			counts[uint32(r.Intn(50))]++
		}
		docs[i] = document.New(uint32(i), counts)
	}
	order := GreedyOrder(docs)
	if len(order) != len(docs) {
		t.Fatalf("order length = %d", len(order))
	}
	seen := make([]bool, len(docs))
	for _, idx := range order {
		if idx < 0 || idx >= len(docs) || seen[idx] {
			t.Fatalf("bad permutation: %v", order)
		}
		seen[idx] = true
	}
}

func TestGreedyOrderChainsOverlappingDocs(t *testing.T) {
	// Two disjoint topics interleaved in input order: greedy should
	// visit one topic fully before jumping to the other.
	docs := []*document.Document{
		mkdoc(0, 1, 2, 3),
		mkdoc(1, 100, 101, 102),
		mkdoc(2, 2, 3, 4),
		mkdoc(3, 101, 102, 103),
		mkdoc(4, 3, 4, 5),
		mkdoc(5, 102, 103, 104),
	}
	order := GreedyOrder(docs)
	topic := func(idx int) int {
		if docs[idx].Cells[0].Term < 100 {
			return 0
		}
		return 1
	}
	switches := 0
	for i := 1; i < len(order); i++ {
		if topic(order[i]) != topic(order[i-1]) {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("topic switches = %d, want 1 (order %v)", switches, order)
	}
	// And adjacent overlap beats identity order.
	if AdjacentOverlap(docs, order) <= AdjacentOverlap(docs, IdentityOrder(len(docs))) {
		t.Errorf("greedy overlap %d <= identity %d",
			AdjacentOverlap(docs, order), AdjacentOverlap(docs, IdentityOrder(len(docs))))
	}
}

func TestGreedyOrderDisconnectedDocs(t *testing.T) {
	docs := []*document.Document{
		mkdoc(0, 1), mkdoc(1, 2), mkdoc(2, 3),
	}
	order := GreedyOrder(docs)
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestReorderRoundTrip(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(128))
	f, _ := d.Create("c")
	b, _ := collection.NewBuilder("c", f)
	docs := []*document.Document{mkdoc(0, 1, 2), mkdoc(1, 3), mkdoc(2, 2, 3)}
	for _, doc := range docs {
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	nf, _ := d.Create("reordered")
	rc, origIDs, err := Reorder("reordered", nf, c, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumDocs() != 3 {
		t.Fatalf("N = %d", rc.NumDocs())
	}
	if origIDs[0] != 2 || origIDs[1] != 0 || origIDs[2] != 1 {
		t.Errorf("origIDs = %v", origIDs)
	}
	got, err := rc.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight(2) != 1 || got.Weight(3) != 1 {
		t.Errorf("reordered doc 0 = %+v", got)
	}
}

// The headline experiment: on a planted-cluster corpus stored scattered,
// HVNL under tight memory fetches far fewer inverted entries after
// greedy clustering — the paper's "documents in the collection are
// clustered" scenario.
func TestClusteredOrderReducesHVNLFetches(t *testing.T) {
	d := iosim.NewDisk(iosim.WithPageSize(4096))
	p := corpus.ClusteredProfile{
		Profile: corpus.Profile{Name: "planted", NumDocs: 240, TermsPerDoc: 20, DistinctTerms: 3000},
		Topics:  8,
		Scatter: true,
	}
	f, _ := d.Create("scattered")
	scattered, err := corpus.GenerateClustered(p, 7, f)
	if err != nil {
		t.Fatal(err)
	}
	// The inner collection shares the topic structure (same vocabulary
	// ranges), so each outer topic probes a distinct slice of the
	// inverted file — the setting where processing order matters.
	innerProfile := p
	innerProfile.Name = "inner"
	innerProfile.NumDocs = 1000
	fi, _ := d.Create("inner")
	inner, err := corpus.GenerateClustered(innerProfile, 8, fi)
	if err != nil {
		t.Fatal(err)
	}
	ef, _ := d.Create("inner.inv")
	tf, _ := d.Create("inner.bt")
	inv, err := invfile.Build(inner, ef, tf)
	if err != nil {
		t.Fatal(err)
	}

	cf, _ := d.Create("clustered")
	clustered, _, err := Clustered("clustered", cf, scattered)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: greedy order has much higher adjacent overlap.
	docsScattered, err := loadAll(scattered)
	if err != nil {
		t.Fatal(err)
	}
	docsClustered, err := loadAll(clustered)
	if err != nil {
		t.Fatal(err)
	}
	ovS := AdjacentOverlap(docsScattered, IdentityOrder(len(docsScattered)))
	ovC := AdjacentOverlap(docsClustered, IdentityOrder(len(docsClustered)))
	if ovC <= ovS {
		t.Fatalf("clustered adjacent overlap %d <= scattered %d", ovC, ovS)
	}

	// The cache holds roughly one topic's entries. LRU is the right
	// policy for exploiting storage-order locality: the paper's
	// min-outer-df policy protects globally frequent terms and evicts
	// the (rare) topic terms that clustering makes reusable.
	opts := core.Options{Lambda: 5, MemoryPages: 12, CachePolicy: entrycache.LRU}
	run := func(outer *collection.Collection) int64 {
		t.Helper()
		_, st, err := core.Join(core.HVNL, core.Inputs{Outer: outer, Inner: inner, InnerInv: inv}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st.EntryFetches
	}
	fetchScattered := run(scattered)
	fetchClustered := run(clustered)
	if fetchClustered >= fetchScattered {
		t.Errorf("clustered fetches %d >= scattered %d", fetchClustered, fetchScattered)
	}
	t.Logf("entry fetches: scattered=%d clustered=%d (%.0f%% saved)",
		fetchScattered, fetchClustered, 100*float64(fetchScattered-fetchClustered)/float64(fetchScattered))
}

func TestTopicAssignments(t *testing.T) {
	docs := []*document.Document{
		mkdoc(0, 1, 2, 3, 150),
		mkdoc(1, 101, 102, 5),
	}
	got := TopicAssignments(docs, 100)
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("assignments = %v", got)
	}
}

// Property: GreedyOrder is always a permutation and never reduces
// adjacent overlap below half of... no strong bound holds in general, so
// assert permutation validity and determinism only.
func TestQuickGreedyOrder(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40) + 1
		docs := make([]*document.Document, n)
		for i := range docs {
			counts := make(map[uint32]int)
			for j := 0; j < r.Intn(8)+1; j++ {
				counts[uint32(r.Intn(60))]++
			}
			docs[i] = document.New(uint32(i), counts)
		}
		o1 := GreedyOrder(docs)
		o2 := GreedyOrder(docs)
		if len(o1) != n || len(o2) != n {
			return false
		}
		seen := make([]bool, n)
		for i := range o1 {
			if o1[i] != o2[i] { // deterministic
				return false
			}
			if seen[o1[i]] {
				return false
			}
			seen[o1[i]] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
