package textjoin

import (
	"math/rand"
	"testing"

	"textjoin/internal/document"
)

func randomDocuments(r *rand.Rand, n, vocab, maxLen int) []*Document {
	docs := make([]*Document, n)
	for i := range docs {
		counts := make(map[uint32]int)
		for j, l := 0, r.Intn(maxLen)+1; j < l; j++ {
			counts[uint32(r.Intn(vocab))]++
		}
		docs[i] = NewDocument(uint32(i), counts)
	}
	return docs
}

// TestPublicAPIEndToEnd drives the whole public surface: build, invert,
// join with each algorithm, integrated choice, cost estimates.
func TestPublicAPIEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ws := NewWorkspace(WithPageSize(256), WithAlpha(5))
	c1, err := ws.NewCollection("c1", randomDocuments(r, 30, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.NewCollection("c2", randomDocuments(r, 25, 60, 12))
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
	opts := Options{Lambda: 4, MemoryPages: 100}

	var baseline []Result
	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		res, st, err := Join(alg, in, opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res) != 25 {
			t.Fatalf("%v: %d results", alg, len(res))
		}
		if st.Cost <= 0 {
			t.Errorf("%v: cost %v", alg, st.Cost)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		for i := range res {
			if res[i].Outer != baseline[i].Outer || len(res[i].Matches) != len(baseline[i].Matches) {
				t.Fatalf("%v: row %d differs", alg, i)
			}
			for j := range res[i].Matches {
				if res[i].Matches[j].Doc != baseline[i].Matches[j].Doc {
					t.Fatalf("%v: row %d match %d differs", alg, i, j)
				}
			}
		}
	}

	res, st, dec, err := JoinIntegrated(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != dec.Chosen || len(res) != 25 || len(dec.Estimates) != 3 {
		t.Errorf("integrated: alg=%v chosen=%v rows=%d ests=%d", st.Algorithm, dec.Chosen, len(res), len(dec.Estimates))
	}

	dec2, err := Choose(in, opts)
	if err != nil || dec2.Chosen != dec.Chosen {
		t.Errorf("Choose = %v, %v", dec2.Chosen, err)
	}

	if ws.Disk().Stats().Reads() == 0 {
		t.Error("no disk reads recorded")
	}
}

func TestPublicCostModel(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 || ps[0].Name != "WSJ" {
		t.Fatalf("Profiles = %v", ps)
	}
	ests := EstimateCosts(
		CostInput{C1: ps[0].Stats(), C2: ps[0].Stats()},
		System{B: 10000, P: 4096, Alpha: 5},
		QueryParams{Lambda: 20, Delta: 0.1},
	)
	if len(ests) != 3 {
		t.Fatalf("estimates = %v", ests)
	}
	for _, e := range ests {
		if e.Seq <= 0 {
			t.Errorf("%v: seq %v", e.Algorithm, e.Seq)
		}
	}
}

func TestPublicTokenizerAndSimilarity(t *testing.T) {
	dict := NewDictionary()
	tok := NewTokenizer(dict)
	d1, err := tok.Document(0, "distributed database systems")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := tok.Document(1, "database systems research")
	if err != nil {
		t.Fatal(err)
	}
	if sim := document.Similarity(d1, d2); sim != 2 {
		t.Errorf("similarity = %v, want 2 (database + system)", sim)
	}
}

func TestPublicQueryLayer(t *testing.T) {
	ws := NewWorkspace(WithPageSize(256))
	dict := NewDictionary()
	tok := NewTokenizer(dict)

	mkDocs := func(texts []string) []*Document {
		docs := make([]*Document, len(texts))
		for i, s := range texts {
			d, err := tok.Document(uint32(i), s)
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = d
		}
		return docs
	}
	resumes, err := ws.NewCollection("resumes", mkDocs([]string{
		"go databases", "haskell compilers",
	}))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := ws.NewCollection("jobs", mkDocs([]string{
		"database engineer go", "compiler engineer haskell",
	}))
	if err != nil {
		t.Fatal(err)
	}
	rinv, err := ws.BuildInvertedFile(resumes)
	if err != nil {
		t.Fatal(err)
	}
	jinv, err := ws.BuildInvertedFile(jobs)
	if err != nil {
		t.Fatal(err)
	}

	applicants, err := NewRelation("Applicants", []Column{
		{Name: "Name", Type: StringType}, {Name: "Resume", Type: TextType},
	})
	if err != nil {
		t.Fatal(err)
	}
	applicants.Insert(StringValue("Ada"), TextValue(0))
	applicants.Insert(StringValue("Hal"), TextValue(1))
	positions, err := NewRelation("Positions", []Column{
		{Name: "Title", Type: StringType}, {Name: "Descr", Type: TextType},
	})
	if err != nil {
		t.Fatal(err)
	}
	positions.Insert(StringValue("DB Engineer"), TextValue(0))
	positions.Insert(StringValue("Compiler Engineer"), TextValue(1))

	cat := NewCatalog()
	if err := cat.Register(applicants); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(positions); err != nil {
		t.Fatal(err)
	}
	if err := cat.BindText("Applicants", "Resume", TextBinding{Collection: resumes, Inverted: rinv}); err != nil {
		t.Fatal(err)
	}
	if err := cat.BindText("Positions", "Descr", TextBinding{Collection: jobs, Inverted: jinv}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cat)
	rs, err := eng.ExecuteString(`
		select P.Title, A.Name from Positions P, Applicants A
		where A.Resume similar_to(1) P.Descr`, QueryOptions{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for _, row := range rs.Rows {
		switch row[0] {
		case "DB Engineer":
			if row[1] != "Ada" {
				t.Errorf("DB Engineer matched %s", row[1])
			}
		case "Compiler Engineer":
			if row[1] != "Hal" {
				t.Errorf("Compiler Engineer matched %s", row[1])
			}
		}
	}
}

// TestPlanningReadsNoPage: a plan comes from resident statistics alone.
// Planning the integrated choice and every forced algorithm — with the
// sidecars offered — on a freshly built workspace, whose B+trees are not
// loaded yet, moves no I/O counter, and planning a forced algorithm
// allocates nothing. That includes a VVM plan at a B whose largest pass's
// matrix (25 rows × 30 columns × 8 bytes) does not fit M, which measures
// δ̂ from the document-frequency tables to pick the pass's starting store.
// So a server can plan before it binds a view without changing any join's
// I/O.
func TestPlanningReadsNoPage(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ws := NewWorkspace(WithPageSize(512))
	var in Inputs
	var pf Prefilter
	var sc *LSHSidecar
	for i, n := range []int{30, 25} {
		c, err := ws.NewCollection([]string{"c1", "c2"}[i], randomDocuments(r, n, 60, 12))
		if err != nil {
			t.Fatal(err)
		}
		inv, err := ws.BuildInvertedFile(c)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := ws.BuildSignatures(c, SignatureConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			in.Inner, in.InnerInv, pf.Inner = c, inv, sig
			if sc, err = ws.BuildLSH(c, LSHConfig{}); err != nil {
				t.Fatal(err)
			}
		} else {
			in.Outer, in.OuterInv, pf.Outer = c, inv, sig
		}
	}
	opts := Options{Lambda: 4, MemoryPages: 100, Prefilter: &pf, LSH: sc, RecallSLO: 0.5}
	tight := opts
	tight.MemoryPages = 3
	before := ws.Disk().Stats()
	for i, alg := range []Algorithm{Auto, HHNL, HVNL, VVM, LSH, VVM} {
		if i == 5 {
			opts = tight
		}
		dec, err := Plan(alg, in, opts)
		if err != nil || dec.PeakBytes <= 0 {
			t.Fatalf("plan %v: %+v, %v", alg, dec, err)
		}
		if after := ws.Disk().Stats(); after != before {
			t.Fatalf("planning %v at B=%d moved the I/O counters: %+v -> %+v", alg, opts.MemoryPages, before, after)
		}
		if alg == Auto {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = Plan(alg, in, opts) }); allocs != 0 {
			t.Errorf("planning %v at B=%d allocates %.0f times, want 0", alg, opts.MemoryPages, allocs)
		}
	}
}
