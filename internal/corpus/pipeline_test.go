package corpus

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// sequential builds n documents the way generation did before it had two
// stages: each document is drawn by next, then added, before the next one
// is drawn. It stops at the first failed Add.
func sequential(t *testing.T, n int64, next func(id uint32) *document.Document) ([]*document.Document, error) {
	t.Helper()
	b, err := collection.NewBuilder("ref", mustCreate(t))
	if err != nil {
		t.Fatal(err)
	}
	var docs []*document.Document
	for id := int64(0); id < n; id++ {
		d := next(uint32(id))
		if err := b.Add(d); err != nil {
			return docs, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// clusteredReference draws GenerateClustered's documents one at a time,
// from the same random stream in the same order.
func clusteredReference(t *testing.T, p ClusteredProfile, seed int64) []*document.Document {
	t.Helper()
	g, err := NewGenerator(p.Profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	frac := p.TopicFraction
	if frac == 0 {
		frac = 0.8
	}
	width := max(1, p.DistinctTerms/int64(p.Topics))
	perTopic := (p.NumDocs + int64(p.Topics) - 1) / int64(p.Topics)
	seen := map[uint32]bool{}
	docs, err := sequential(t, p.NumDocs, func(id uint32) *document.Document {
		topic := int64(id) % int64(p.Topics)
		if !p.Scatter {
			topic = int64(id) / perTopic
			if topic >= int64(p.Topics) {
				topic = int64(p.Topics) - 1
			}
		}
		length := g.docLength()
		clear(seen)
		var cells []document.Cell
		for len(cells) < length {
			var term uint32
			if g.r.Float64() < frac {
				term = uint32(topic*width + g.r.Int63n(width))
			} else {
				term = uint32(g.zipf.next())
			}
			if !seen[term] {
				seen[term] = true
				cells = append(cells, document.Cell{Term: term, Weight: uint16(1 + g.occurrences())})
			}
		}
		slices.SortFunc(cells, func(a, b document.Cell) int { return int(a.Term) - int(b.Term) })
		return &document.Document{ID: id, Cells: cells}
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// sameDocuments compares c with want document by document, cell for cell.
func sameDocuments(t *testing.T, name string, c *collection.Collection, want []*document.Document) {
	t.Helper()
	if c.NumDocs() != int64(len(want)) {
		t.Fatalf("%s: %d documents, want %d", name, c.NumDocs(), len(want))
	}
	for _, w := range want {
		got, err := c.Fetch(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Cells, w.Cells) {
			t.Fatalf("%s: document %d has %d cells %v…, one at a time gives %d %v…",
				name, w.ID, len(got.Cells), got.Cells[:min(4, len(got.Cells))], len(w.Cells), w.Cells[:min(4, len(w.Cells))])
		}
	}
}

// goroutinesBackTo waits a little for the goroutine count to fall back to
// n: a goroutine that has handed over its result may still be returning.
func goroutinesBackTo(t *testing.T, n int, what string) {
	t.Helper()
	for range 200 {
		if runtime.NumGoroutine() <= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), n)
}

// TestPipelineMatchesSequential holds Generate and GenerateClustered to a
// generator that draws, sorts and adds one document at a time: the two
// stages must write the same documents for every shape the experiments
// use, batch-size multiples or not, and leave no goroutine behind.
func TestPipelineMatchesSequential(t *testing.T) {
	before := runtime.NumGoroutine()
	var profiles []Profile
	for _, p := range Profiles() {
		profiles = append(profiles, p.Scaled(512), p.Scaled(128))
	}
	profiles = append(profiles,
		WSJ.Scaled(64).Small(50),
		FR.Scaled(512).FewerLargerDocs(4),
		Profile{Name: "dense", NumDocs: 10, TermsPerDoc: 90, DistinctTerms: 100}, // TestDenseDocsFallback's
		Profile{Name: "odd", NumDocs: 3*batchDocs + 5, TermsPerDoc: 12, DistinctTerms: 800},
		Profile{Name: "even", NumDocs: 2 * batchDocs, TermsPerDoc: 12, DistinctTerms: 800},
	)
	for i, p := range profiles {
		seed := int64(i + 1)
		g, err := NewGenerator(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sequential(t, p.NumDocs, g.Document)
		if err != nil {
			t.Fatal(err)
		}
		c, err := GenerateOn(iosim.NewDisk(iosim.WithPageSize(4096)), "c", p, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameDocuments(t, p.Name, c, want)
	}
	for _, scatter := range []bool{true, false} {
		p := ClusteredProfile{
			Profile: Profile{Name: fmt.Sprintf("topics-scatter=%v", scatter), NumDocs: 2*batchDocs + 37, TermsPerDoc: 15, DistinctTerms: 900, ZipfS: 1.3},
			Topics:  6,
			Scatter: scatter,
		}
		c, err := GenerateClustered(p, 9, mustCreate(t))
		if err != nil {
			t.Fatal(err)
		}
		sameDocuments(t, p.Name, c, clusteredReference(t, p, 9))
	}
	goroutinesBackTo(t, before, "after generation")
}

// TestPipelineStopsAfterFailedAdd generates a vocabulary wider than the
// 3-byte term number, so some document past the first batch (document 814
// at this seed) cannot be encoded. build, which Generate runs, must return
// the error that adding the documents one at a time returns; the drawing
// stage must stop at the end of the batch after the one that failed (it
// has no way to know sooner); and no goroutine may outlive the call.
func TestPipelineStopsAfterFailedAdd(t *testing.T) {
	before := runtime.NumGoroutine()
	p := Profile{Name: "wide", NumDocs: 20 * batchDocs, TermsPerDoc: 1, DistinctTerms: 1<<24 + 1<<21, ZipfS: 1.05}
	const seed = 1
	ref, err := NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	added, want := sequential(t, p.NumDocs, ref.Document)
	if want == nil {
		t.Fatal("every document fits: the profile no longer reaches the failure")
	}
	failed := int64(len(added))
	if failed < batchDocs || failed/batchDocs+2 >= p.NumDocs/batchDocs {
		t.Fatalf("document %d fails; want one past the first batch and two batches before the last", failed)
	}

	g, err := NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := collection.NewBuilder(p.Name, mustCreate(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.build(b, p.NumDocs, func(int64) { g.draw() })
	if c != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("build = %v, %v; want the error %q", c, err, want)
	}
	goroutinesBackTo(t, before, "after a failed Add")

	// The drawing stage filled the failing batch and the next one, and
	// nothing after: its source is where the reference's is once it has
	// drawn those documents too.
	drawn := (failed/batchDocs + 2) * batchDocs
	for id := failed + 1; id < drawn; id++ {
		ref.Document(uint32(id))
	}
	if got, want := g.r.Int63(), ref.r.Int63(); got != want {
		t.Errorf("after the failure the drawing stage did not stop at document %d: next draw %d, want %d", drawn-1, got, want)
	}
}

func mustCreate(t *testing.T) *iosim.File {
	t.Helper()
	f, err := iosim.NewDisk(iosim.WithPageSize(4096)).Create("c")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// BenchmarkGenerate times the set-up hvnl_probe generates: two WSJ/16
// collections, seeds 1 and 2, on a fresh disk each iteration.
func BenchmarkGenerate(b *testing.B) {
	p := WSJ.Scaled(16)
	for range b.N {
		d := iosim.NewDisk(iosim.WithPageSize(4096))
		for seed := int64(1); seed <= 2; seed++ {
			if _, err := GenerateOn(d, fmt.Sprintf("c%d", seed), p, seed); err != nil {
				b.Fatal(err)
			}
		}
	}
}
