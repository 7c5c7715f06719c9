package relation

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Relation {
	t.Helper()
	r, err := New("Positions", []Column{
		{Name: "P#", Type: Int},
		{Name: "Title", Type: String},
		{Name: "Job_descr", Type: Text},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id    int64
		title string
		doc   uint32
	}{
		{1, "Software Engineer", 0},
		{2, "Data Analyst", 1},
		{3, "Hardware Engineer", 2},
		{4, "Manager", 3},
	}
	for _, row := range rows {
		if err := r.Insert(IntValue(row.id), StringValue(row.title), TextValue(row.doc)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestNewRejectsDuplicateColumns(t *testing.T) {
	if _, err := New("r", []Column{{Name: "a", Type: Int}, {Name: "A", Type: Int}}); err == nil {
		t.Error("duplicate columns: want error")
	}
}

func TestTypeString(t *testing.T) {
	if String.String() != "string" || Int.String() != "int" || Text.String() != "text" {
		t.Error("type names wrong")
	}
	if Type(9).String() == "" {
		t.Error("unknown type name empty")
	}
}

func TestInsertValidation(t *testing.T) {
	r := sample(t)
	if err := r.Insert(IntValue(9)); err == nil {
		t.Error("wrong arity: want error")
	}
	if err := r.Insert(StringValue("x"), StringValue("y"), TextValue(0)); err == nil {
		t.Error("wrong type: want error")
	}
	if r.NumRows() != 4 {
		t.Errorf("NumRows = %d", r.NumRows())
	}
}

func TestColumnIndexCaseInsensitive(t *testing.T) {
	r := sample(t)
	for _, name := range []string{"Title", "title", "TITLE"} {
		if i, err := r.ColumnIndex(name); err != nil || i != 1 {
			t.Errorf("ColumnIndex(%q) = %d, %v", name, i, err)
		}
	}
	if _, err := r.ColumnIndex("nope"); err == nil {
		t.Error("unknown column: want error")
	}
}

func TestFilter(t *testing.T) {
	r := sample(t)
	rows := r.Filter(func(row []Value) bool {
		return strings.Contains(row[1].Str, "Engineer")
	})
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("Filter = %v", rows)
	}
}

func TestRowByDocAndDocIndex(t *testing.T) {
	r := sample(t)
	if got := r.RowByDoc(2, 2); got != 2 {
		t.Errorf("RowByDoc = %d", got)
	}
	if got := r.RowByDoc(2, 99); got != -1 {
		t.Errorf("RowByDoc missing = %d", got)
	}
	idx := r.DocIndex(2)
	if len(idx) != 4 || idx[3] != 3 {
		t.Errorf("DocIndex = %v", idx)
	}
}

func TestValueFormat(t *testing.T) {
	if StringValue("x").Format() != "x" {
		t.Error("string format")
	}
	if IntValue(42).Format() != "42" {
		t.Error("int format")
	}
	if TextValue(7).Format() != "doc#7" {
		t.Error("text format")
	}
	if (Value{Kind: Type(9)}).Format() != "?" {
		t.Error("unknown format")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%Engineer%", "Software Engineer", true},
		{"%Engineer%", "Engineer", true},
		{"%Engineer%", "engineer", false}, // case-sensitive
		{"%Engineer%", "Data Analyst", false},
		{"Engineer", "Engineer", true},
		{"Engineer", "Engineers", false},
		{"Engineer%", "Engineers", true},
		{"_ngineer", "Engineer", true},
		{"_ngineer", "ngineer", false},
		{"%", "", true},
		{"%%", "abc", true},
		{"", "", true},
		{"", "x", false},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "acb", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
	}
	for _, c := range cases {
		if got := Like(c.pattern, c.s); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		v    Value
		op   string
		lit  Value
		want bool
	}{
		{IntValue(3), "=", IntValue(3), true},
		{IntValue(3), "<>", IntValue(3), false},
		{IntValue(2), "<", IntValue(3), true},
		{IntValue(3), "<=", IntValue(3), true},
		{IntValue(4), ">", IntValue(3), true},
		{IntValue(3), ">=", IntValue(4), false},
		{StringValue("a"), "<", StringValue("b"), true},
		{StringValue("a"), "=", StringValue("a"), true},
		{IntValue(1), "!=", IntValue(2), true},
	}
	for _, c := range cases {
		got, err := Compare(c.v, c.op, c.lit)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v %s %v) = %v, %v", c.v, c.op, c.lit, got, err)
		}
	}
	if _, err := Compare(IntValue(1), "=", StringValue("a")); err == nil {
		t.Error("cross-type compare: want error")
	}
	if _, err := Compare(TextValue(1), "=", TextValue(1)); err == nil {
		t.Error("text compare: want error")
	}
	if _, err := Compare(IntValue(1), "~", IntValue(1)); err == nil {
		t.Error("unknown op: want error")
	}
}

// Property: Like("%"+s+"%", x) is true iff s is a substring of x, for
// patterns free of wildcards.
func TestQuickLikeSubstring(t *testing.T) {
	check := func(sRaw, xRaw []byte) bool {
		s := strings.Map(stripWild, string(sRaw))
		x := strings.Map(stripWild, string(xRaw))
		return Like("%"+s+"%", x) == strings.Contains(x, s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: a pattern with no wildcards matches only itself.
func TestQuickLikeExact(t *testing.T) {
	check := func(aRaw, bRaw []byte) bool {
		a := strings.Map(stripWild, string(aRaw))
		b := strings.Map(stripWild, string(bRaw))
		return Like(a, b) == (a == b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func stripWild(r rune) rune {
	if r == '%' || r == '_' {
		return 'w'
	}
	return r
}
