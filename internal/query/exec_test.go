package query_test

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"textjoin"
	"textjoin/internal/core"
	"textjoin/internal/query"
	"textjoin/internal/relation"
	"textjoin/internal/termmap"
	"textjoin/internal/tokenize"
)

// jobEnv builds the motivating example: Positions and Applicants with
// textual attributes over real tokenized text.
type jobEnv struct {
	cat    *query.Catalog
	engine *query.Engine
}

var positionTexts = []string{
	"design and build distributed database systems in go",
	"maintain legacy payroll software and reports",
	"research information retrieval and text indexing engines",
	"manage a team of hardware engineers",
}

var positionTitles = []string{
	"Database Engineer", "Payroll Clerk", "Search Engineer", "Engineering Manager",
}

var applicantTexts = []string{
	"experienced database engineer distributed systems go postgres",
	"payroll administration and report writing for enterprises",
	"text retrieval indexing search engines information systems",
	"hardware team management leadership",
	"go systems programming databases indexing",
}

var applicantNames = []string{"Ada", "Bob", "Cara", "Dan", "Eve"}

func buildJobEnv(t *testing.T) *jobEnv {
	t.Helper()
	return buildEnv(t, positionTitles, positionTexts, applicantNames, applicantTexts)
}

// buildEnv builds Positions (P# i+1, titles[i], descriptions[i]) and
// Applicants (SSN 1000+i, names[i], resumeTexts[i]) over tokenized text.
func buildEnv(t *testing.T, titles, descriptions, names, resumeTexts []string) *jobEnv {
	t.Helper()
	ws := textjoin.NewWorkspace(textjoin.WithPageSize(256))
	dict := termmap.NewDictionary()
	tok := tokenize.New(dict, tokenize.Options{})

	build := func(name string, texts []string) (*textjoin.Collection, *textjoin.InvertedFile) {
		docs := make([]*textjoin.Document, len(texts))
		for i, text := range texts {
			var err error
			if docs[i], err = tok.Document(uint32(i), text); err != nil {
				t.Fatal(err)
			}
		}
		c, err := ws.NewCollection(name, docs)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := ws.BuildInvertedFile(c)
		if err != nil {
			t.Fatal(err)
		}
		return c, inv
	}

	resumes, resumesInv := build("resumes", resumeTexts)
	descrs, descrsInv := build("descrs", descriptions)

	positions, err := relation.New("Positions", []relation.Column{
		{Name: "P#", Type: relation.Int},
		{Name: "Title", Type: relation.String},
		{Name: "Job_descr", Type: relation.Text},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, title := range titles {
		if err := positions.Insert(relation.IntValue(int64(i+1)), relation.StringValue(title), relation.TextValue(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	applicants, err := relation.New("Applicants", []relation.Column{
		{Name: "SSN", Type: relation.Int},
		{Name: "Name", Type: relation.String},
		{Name: "Resume", Type: relation.Text},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if err := applicants.Insert(relation.IntValue(int64(1000+i)), relation.StringValue(name), relation.TextValue(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}

	cat := query.NewCatalog()
	if err := cat.Register(positions); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(applicants); err != nil {
		t.Fatal(err)
	}
	if err := cat.BindText("Positions", "Job_descr", query.TextBinding{Collection: descrs, Inverted: descrsInv}); err != nil {
		t.Fatal(err)
	}
	if err := cat.BindText("Applicants", "Resume", query.TextBinding{Collection: resumes, Inverted: resumesInv}); err != nil {
		t.Fatal(err)
	}
	return &jobEnv{cat: cat, engine: query.NewEngine(cat)}
}

func TestCatalogValidation(t *testing.T) {
	e := buildJobEnv(t)
	pos, _ := e.cat.Relation("positions")
	if err := e.cat.Register(pos); err == nil {
		t.Error("duplicate Register: want error")
	}
	if _, err := e.cat.Relation("nope"); err == nil {
		t.Error("unknown relation: want error")
	}
	if err := e.cat.BindText("Positions", "Title", query.TextBinding{}); err == nil {
		t.Error("binding non-text column: want error")
	}
	if err := e.cat.BindText("Positions", "Job_descr", query.TextBinding{}); err == nil {
		t.Error("binding without collection: want error")
	}
	if err := e.cat.BindText("Nope", "x", query.TextBinding{}); err == nil {
		t.Error("binding unknown relation: want error")
	}
}

func TestExecuteMotivatingExample(t *testing.T) {
	e := buildJobEnv(t)
	rs, err := e.engine.ExecuteString(`
		Select P.P#, P.Title, A.SSN, A.Name
		From Positions P, Applicants A
		Where A.Resume SIMILAR_TO(2) P.Job_descr`, query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 5 || rs.Columns[4] != "similarity" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	// Every position gets up to 2 applicants.
	if len(rs.Rows) == 0 || len(rs.Rows) > 8 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	// The database position's best match should be Ada (shares
	// database/engineer/distributed/systems/go).
	foundAda := false
	for _, row := range rs.Rows {
		if row[1] == "Database Engineer" && row[3] == "Ada" {
			foundAda = true
		}
	}
	if !foundAda {
		t.Errorf("Ada not matched to Database Engineer: %v", rs.Rows)
	}
	if rs.JoinStats == nil || rs.Estimates == nil {
		t.Error("missing stats or estimates")
	}
}

func TestExecuteWithSelectionOnOuter(t *testing.T) {
	e := buildJobEnv(t)
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name
		From Positions P, Applicants A
		Where P.Title like "%Engineer%" and A.Resume SIMILAR_TO(1) P.Job_descr`,
		query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Three titles contain "Engineer"; each gets its single best match.
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for _, row := range rs.Rows {
		if !strings.Contains(row[0], "Engineer") {
			t.Errorf("selection leaked: %v", row)
		}
	}
}

func TestExecuteWithSelectionOnInner(t *testing.T) {
	e := buildJobEnv(t)
	// Only applicants with SSN >= 1002 participate as match candidates.
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name, A.SSN
		From Positions P, Applicants A
		Where A.SSN >= 1002 and A.Resume SIMILAR_TO(1) P.Job_descr`,
		query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rs.Rows {
		if row[1] == "Ada" || row[1] == "Bob" {
			t.Errorf("excluded applicant matched: %v", row)
		}
	}
}

func TestExecuteForcedAlgorithms(t *testing.T) {
	e := buildJobEnv(t)
	src := `Select P.Title, A.Name From Positions P, Applicants A
		Where A.Resume SIMILAR_TO(2) P.Job_descr`
	var baseline *query.ResultSet
	for _, alg := range []core.Algorithm{core.HHNL, core.HVNL, core.VVM} {
		a := alg
		rs, err := e.engine.ExecuteString(src, query.Options{MemoryPages: 100, Force: &a})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rs.Algorithm != alg {
			t.Errorf("ran %v, want %v", rs.Algorithm, alg)
		}
		if baseline == nil {
			baseline = rs
			continue
		}
		if len(rs.Rows) != len(baseline.Rows) {
			t.Fatalf("%v: %d rows vs %d", alg, len(rs.Rows), len(baseline.Rows))
		}
		for i := range rs.Rows {
			for j := range rs.Rows[i] {
				if rs.Rows[i][j] != baseline.Rows[i][j] {
					t.Errorf("%v row %d col %d: %q vs %q", alg, i, j, rs.Rows[i][j], baseline.Rows[i][j])
				}
			}
		}
	}
}

// TestExecuteRowOrderIsStable holds a result set's order: rows follow
// the outer relation's rows, an outer row's matches run best first, and
// every execution returns the same rows in the same order. Sixteen outer
// rows span more than one map group, so a map range that ordered the rows
// would reorder them from one execution to the next and fail here.
func TestExecuteRowOrderIsStable(t *testing.T) {
	var titles, descriptions []string
	for i := 0; i < 16; i++ {
		titles = append(titles, fmt.Sprintf("Position %d", i+1))
		descriptions = append(descriptions, positionTexts[i%len(positionTexts)]+" "+applicantTexts[i%len(applicantTexts)])
	}
	e := buildEnv(t, titles, descriptions, applicantNames, applicantTexts)
	src := `Select P.P#, A.Name From Positions P, Applicants A
		Where A.Resume SIMILAR_TO(3) P.Job_descr`
	var runs [5][][]string
	for i := range runs {
		rs, err := e.engine.ExecuteString(src, query.Options{MemoryPages: 100})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rs.Rows
	}
	prev, prevSim, outers := 0, 0.0, 0
	for _, row := range runs[0] {
		p, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		sim, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev || p == prev && sim > prevSim {
			t.Fatalf("row %v follows P# %d at similarity %v: rows are out of order\n%v", row, prev, prevSim, runs[0])
		}
		if p != prev {
			outers++
		}
		prev, prevSim = p, sim
	}
	if outers != len(titles) {
		t.Fatalf("rows name %d positions, want all %d:\n%v", outers, len(titles), runs[0])
	}
	for i, rows := range runs[1:] {
		if !reflect.DeepEqual(rows, runs[0]) {
			t.Fatalf("execution %d returned\n%v\nafter\n%v", i+2, rows, runs[0])
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	e := buildJobEnv(t)
	cases := []string{
		// one table
		`select a.Name from Applicants a where a.Resume similar_to(1) a.Resume`,
		// unknown relation
		`select a.Name from Applicants a, Ghosts g where a.Resume similar_to(1) g.T`,
		// unknown column
		`select a.Nope from Applicants a, Positions p where a.Resume similar_to(1) p.Job_descr`,
		// unknown table alias in colref
		`select z.Name from Applicants a, Positions p where a.Resume similar_to(1) p.Job_descr`,
		// no similar_to
		`select a.Name from Applicants a, Positions p where a.SSN = 1`,
		// similar over non-bound column
		`select a.Name from Applicants a, Positions p where a.Name similar_to(1) p.Job_descr`,
		// ambiguous unqualified column would need identical names; use duplicate table
		`select a.Name from Applicants a, Applicants a where a.Resume similar_to(1) a.Resume`,
	}
	for _, src := range cases {
		if _, err := e.engine.ExecuteString(src, query.Options{MemoryPages: 100}); err == nil {
			t.Errorf("ExecuteString(%q): want error", src)
		}
	}
}

func TestExplainOnly(t *testing.T) {
	e := buildJobEnv(t)
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name
		From Positions P, Applicants A
		Where P.Title like "%Engineer%" and A.Resume SIMILAR_TO(2) P.Job_descr`,
		query.Options{MemoryPages: 100, ExplainOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("explain returned rows: %v", rs.Rows)
	}
	if rs.JoinStats != nil {
		t.Error("explain ran the join")
	}
	if len(rs.Estimates) != 3 || len(rs.Plan) < 5 {
		t.Fatalf("estimates=%d plan=%v", len(rs.Estimates), rs.Plan)
	}
	joined := strings.Join(rs.Plan, "\n")
	if !strings.Contains(joined, "3 of 4 documents") {
		t.Errorf("plan missing outer selection info:\n%s", joined)
	}
	if !strings.Contains(joined, "chosen:") {
		t.Errorf("plan missing choice:\n%s", joined)
	}
	// Forced algorithm shows up in the plan result.
	forced := core.VVM
	rs2, err := e.engine.ExecuteString(`
		Select P.Title From Positions P, Applicants A
		Where A.Resume SIMILAR_TO(1) P.Job_descr`,
		query.Options{MemoryPages: 100, ExplainOnly: true, Force: &forced})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Algorithm != core.VVM {
		t.Errorf("forced explain algorithm = %v", rs2.Algorithm)
	}
}

func TestExecuteSelectionLeavesNothing(t *testing.T) {
	e := buildJobEnv(t)
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name
		From Positions P, Applicants A
		Where P.Title like "%Astronaut%" and A.Resume SIMILAR_TO(1) P.Job_descr`,
		query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("rows = %v, want none", rs.Rows)
	}
}

func TestExecuteSelectionOnBothSides(t *testing.T) {
	e := buildJobEnv(t)
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name
		From Positions P, Applicants A
		Where P.Title like "%Engineer%" and A.SSN <> 1000
		  and A.Resume SIMILAR_TO(1) P.Job_descr`,
		query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		if !strings.Contains(row[0], "Engineer") {
			t.Errorf("outer selection leaked: %v", row)
		}
		if row[1] == "Ada" {
			t.Errorf("inner selection leaked: %v", row)
		}
	}
	if len(rs.Rows) == 0 {
		t.Error("no rows at all")
	}
}

func TestExecuteNotLike(t *testing.T) {
	e := buildJobEnv(t)
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name
		From Positions P, Applicants A
		Where P.Title not like "%Engineer%" and A.Resume SIMILAR_TO(1) P.Job_descr`,
		query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		if strings.Contains(row[0], "Engineer") {
			t.Errorf("NOT LIKE leaked: %v", row)
		}
	}
}

func TestExecuteUnqualifiedAndAmbiguous(t *testing.T) {
	e := buildJobEnv(t)
	// Unqualified unique columns resolve fine.
	rs, err := e.engine.ExecuteString(`
		select Title, Name from Positions, Applicants
		where Resume similar_to(1) Job_descr`, query.Options{MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Error("no rows")
	}
}

// TestExecuteTelemetryCounters: the engine keeps no collector. What a
// statement did comes back in its ResultSet — the rows, the plan, and the
// executed join's Stats (none under ExplainOnly) — and a program adds
// those Stats to its own collector with textjoin.RecordJoin.
func TestExecuteTelemetryCounters(t *testing.T) {
	e := buildJobEnv(t)
	opts := query.Options{MemoryPages: 100}
	rs, err := e.engine.ExecuteString(`
		Select P.Title, A.Name
		From Positions P, Applicants A
		Where A.Resume SIMILAR_TO(1) P.Job_descr`, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := rs.JoinStats
	if st == nil || len(rs.Rows) == 0 || st.Algorithm != rs.Algorithm {
		t.Fatalf("executed statement: %d rows, algorithm %v, join stats %+v", len(rs.Rows), rs.Algorithm, st)
	}
	tel := textjoin.NewTelemetry()
	textjoin.RecordJoin(tel, textjoin.Decision{Chosen: rs.Algorithm, Estimates: rs.Estimates}, st, nil)
	alg := strings.ToLower(rs.Algorithm.String())
	if got := tel.Value(`textjoin_plan_chosen_total{alg="` + alg + `"}`); got != 1 {
		t.Errorf("textjoin_plan_chosen_total{alg=%q} = %d, want 1", alg, got)
	}
	// Each of the join's Stats.Counts reaches its family.
	n := 0
	st.Counts(func(group, count string, want int64) {
		n++
		series := "textjoin_join_" + alg + "_" + count + "_total"
		if group == "prefilter" {
			series = "textjoin_prefilter_" + count + `_total{alg="` + alg + `"}`
		} else if group != "" {
			series = "textjoin_join_" + alg + "_" + group + "_" + count + "_total"
		}
		if got := tel.Value(series); got != want {
			t.Errorf("%s = %d, want the statement's %d", series, got, want)
		}
	})
	if n < 9 {
		t.Errorf("the statement's join reports %d counts, want at least 9", n)
	}

	opts.ExplainOnly = true
	rs, err = e.engine.ExecuteString(`
		Select P.Title From Positions P, Applicants A
		Where A.Resume SIMILAR_TO(1) P.Job_descr`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rs.JoinStats != nil || len(rs.Rows) != 0 || len(rs.Plan) == 0 {
		t.Errorf("explained statement: %d rows, join stats %+v, %d plan lines; want no rows or stats, a plan",
			len(rs.Rows), rs.JoinStats, len(rs.Plan))
	}
}
