package simulate

import (
	"math"
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if len(tb.Columns) != 3 {
		t.Fatalf("columns = %v", tb.Columns)
	}
	// Spot check: WSJ collection size ≈ 40605 pages at P=4000.
	var sizeRow Row
	for _, r := range tb.Rows {
		if r.Label == "size(pages)" {
			sizeRow = r
		}
	}
	if math.Abs(sizeRow.Costs["WSJ"]-40605) > 10 {
		t.Errorf("WSJ size = %v, want ≈ 40605", sizeRow.Costs["WSJ"])
	}
	if math.Abs(sizeRow.Costs["FR"]-33315) > 10 {
		t.Errorf("FR size = %v, want ≈ 33315", sizeRow.Costs["FR"])
	}
	if math.Abs(sizeRow.Costs["DOE"]-25152) > 10 {
		t.Errorf("DOE size = %v, want ≈ 25152", sizeRow.Costs["DOE"])
	}
	if !strings.Contains(tb.Format(), "table1") {
		t.Error("Format missing id")
	}
}

func TestGroup1Shape(t *testing.T) {
	tables := Group1()
	if len(tables) != 6 {
		t.Fatalf("Group 1 should have 6 simulations (3 collections × 2 parameters), got %d", len(tables))
	}
	for _, tb := range tables {
		wantRows := len(BSweep)
		if strings.Contains(tb.ID, "alpha") {
			wantRows = len(AlphaSweep)
		}
		if len(tb.Rows) != wantRows {
			t.Errorf("%s: rows = %d, want %d", tb.ID, len(tb.Rows), wantRows)
		}
		for _, r := range tb.Rows {
			for _, c := range CostColumns {
				if _, ok := r.Costs[c]; !ok {
					t.Errorf("%s %s: missing column %s", tb.ID, r.Label, c)
				}
			}
			if r.Chosen == "" {
				t.Errorf("%s %s: no chosen algorithm", tb.ID, r.Label)
			}
		}
	}
}

func TestGroup1CostsDecreaseWithMemory(t *testing.T) {
	for _, tb := range Group1() {
		if !strings.Contains(tb.ID, "-B") {
			continue
		}
		for _, col := range []string{"hhs", "hvs", "vvs"} {
			prev := math.Inf(1)
			for _, r := range tb.Rows {
				v := r.Costs[col]
				if !math.IsInf(v, 1) && v > prev+1e-6 {
					t.Errorf("%s: %s increases with B at %s (%v > %v)", tb.ID, col, r.Label, v, prev)
				}
				if !math.IsInf(v, 1) {
					prev = v
				}
			}
		}
	}
}

func TestGroup1AlphaMonotone(t *testing.T) {
	for _, tb := range Group1() {
		if !strings.Contains(tb.ID, "alpha") {
			continue
		}
		for _, col := range []string{"hhr", "hvr", "vvr"} {
			prev := 0.0
			for _, r := range tb.Rows {
				v := r.Costs[col]
				if math.IsInf(v, 1) {
					continue
				}
				if v < prev-1e-6 {
					t.Errorf("%s: %s decreases with α at %s", tb.ID, col, r.Label)
				}
				prev = v
			}
		}
	}
}

func TestGroup2Shape(t *testing.T) {
	tables := Group2()
	if len(tables) != 6 {
		t.Fatalf("Group 2 should have 6 ordered pairs, got %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		seen[tb.ID] = true
		if len(tb.Rows) != len(BSweep) {
			t.Errorf("%s: rows = %d", tb.ID, len(tb.Rows))
		}
	}
	for _, id := range []string{"group2-wsj-fr", "group2-fr-wsj", "group2-doe-wsj"} {
		if !seen[id] {
			t.Errorf("missing table %s (have %v)", id, seen)
		}
	}
}

func TestGroup3HVNLWinsSmallM(t *testing.T) {
	for _, tb := range Group3() {
		if len(tb.Rows) != len(MSweep) {
			t.Fatalf("%s: rows = %d", tb.ID, len(tb.Rows))
		}
		// m=1: HVNL must be the winner (the extreme single-query case).
		first := tb.Rows[0]
		if first.Chosen != "HVNL" {
			t.Errorf("%s m=1: chosen %s, want HVNL (costs %v)", tb.ID, first.Chosen, first.Costs)
		}
		// Costs grow with m for every algorithm's sequential variant.
		prev := 0.0
		for _, r := range tb.Rows {
			v := r.Costs["hvs"]
			if math.IsInf(v, 1) {
				continue
			}
			if v < prev-1e-6 {
				t.Errorf("%s: hvs decreases at %s", tb.ID, r.Label)
			}
			prev = v
		}
	}
}

func TestGroup4SmallerThanGroup3(t *testing.T) {
	// Group 4's sequential C2 reads and small inverted file can only
	// make things cheaper than Group 3 at the same m for HHNL and VVM.
	g3 := Group3()
	g4 := Group4()
	for i := range g3 {
		for j, r3 := range g3[i].Rows {
			r4 := g4[i].Rows[j]
			if r4.Costs["hhs"] > r3.Costs["hhs"]+1e-6 {
				t.Errorf("%s %s: group4 hhs %v > group3 %v", g4[i].ID, r4.Label, r4.Costs["hhs"], r3.Costs["hhs"])
			}
			if !math.IsInf(r4.Costs["vvs"], 1) && !math.IsInf(r3.Costs["vvs"], 1) &&
				r4.Costs["vvs"] > r3.Costs["vvs"]+1e-6 {
				t.Errorf("%s %s: group4 vvs %v > group3 %v", g4[i].ID, r4.Label, r4.Costs["vvs"], r3.Costs["vvs"])
			}
		}
	}
}

func TestGroup5VVMTakesOver(t *testing.T) {
	for _, tb := range Group5() {
		if len(tb.Rows) != len(FactorSweep) {
			t.Fatalf("%s: rows = %d", tb.ID, len(tb.Rows))
		}
		// At the largest factor VVM must win (the group's purpose).
		last := tb.Rows[len(tb.Rows)-1]
		if last.Chosen != "VVM" {
			t.Errorf("%s %s: chosen %s, want VVM (costs %v)", tb.ID, last.Label, last.Chosen, last.Costs)
		}
		// vvs improves (or stays) as the factor grows: fewer documents
		// mean fewer partitions over the same file sizes.
		prev := math.Inf(1)
		for _, r := range tb.Rows {
			v := r.Costs["vvs"]
			if math.IsInf(v, 1) {
				continue
			}
			if v > prev+1e-6 {
				t.Errorf("%s: vvs increases at %s (%v > %v)", tb.ID, r.Label, v, prev)
			}
			prev = v
		}
	}
}

func TestFindingsAllHold(t *testing.T) {
	fs := Findings()
	if len(fs) != 5 {
		t.Fatalf("findings = %d", len(fs))
	}
	for _, f := range fs {
		if !f.Holds {
			t.Errorf("finding %d does not hold: %s (%s)", f.ID, f.Statement, f.Evidence)
		}
	}
	report := FormatFindings(fs)
	if !strings.Contains(report, "(1)") || !strings.Contains(report, "(5)") {
		t.Error("report incomplete")
	}
}

func TestRunAllCount(t *testing.T) {
	tables := RunAll()
	// 1 (table1) + 6 (g1) + 6 (g2) + 3 (g3) + 3 (g4) + 3 (g5)
	// + 3 (λ sweep) + 3 (δ sweep) = 28.
	if len(tables) != 28 {
		t.Errorf("RunAll = %d tables, want 28", len(tables))
	}
	for _, tb := range tables {
		if tb.Format() == "" {
			t.Errorf("%s: empty format", tb.ID)
		}
	}
}
