package simulate

import (
	"math"
	"strings"
	"testing"
)

// Golden tests pin the table rendering so regressions in the CLI output
// show up as diffs rather than silent format drift.

func TestTableFormatGolden(t *testing.T) {
	tb := &Table{
		ID:      "demo",
		Title:   "demo table",
		Columns: []string{"hhs", "vvs"},
		Rows: []Row{
			{Label: "B=10", Costs: map[string]float64{"hhs": 1234.4, "vvs": math.Inf(1)}, Chosen: "HHNL"},
			{Label: "B=20", Costs: map[string]float64{"hhs": 99.6}, Chosen: "HHNL"},
		},
	}
	got := tb.Format()
	want := "" +
		"== demo: demo table ==\n" +
		"                       hhs         vvs      chosen\n" +
		"B=10                  1234         inf        HHNL\n" +
		"B=20                   100           -        HHNL\n"
	if got != want {
		t.Errorf("Format mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestFindingsFormatListsAll(t *testing.T) {
	out := FormatFindings([]Finding{
		{ID: 1, Statement: "s1", Holds: true, Evidence: "e1"},
		{ID: 2, Statement: "s2", Holds: false, Evidence: "e2"},
	})
	if !strings.Contains(out, "HOLDS: e1") || !strings.Contains(out, "DOES NOT HOLD: e2") {
		t.Errorf("format = %q", out)
	}
}
