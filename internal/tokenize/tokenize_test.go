package tokenize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/termmap"
)

func newTok() *Tokenizer {
	return New(termmap.NewDictionary(), Options{})
}

func TestTermsBasic(t *testing.T) {
	tok := newTok()
	terms := tok.Terms("The quick brown fox, jumping over the lazy dog!")
	want := []string{"quick", "brown", "fox", "jump", "over", "lazy", "dog"}
	if len(terms) != len(want) {
		t.Fatalf("terms = %v, want %v", terms, want)
	}
	for i := range want {
		if terms[i] != want[i] {
			t.Errorf("term %d = %q, want %q", i, terms[i], want[i])
		}
	}
}

func TestStopwordsAndShortTokens(t *testing.T) {
	tok := newTok()
	terms := tok.Terms("a I to x of databases")
	if len(terms) != 1 || terms[0] != "database" {
		t.Errorf("terms = %v, want [database]", terms)
	}
}

func TestCustomStopwords(t *testing.T) {
	tok := New(termmap.NewDictionary(), Options{Stopwords: []string{"fox"}})
	terms := tok.Terms("the fox runs")
	// "the" is no longer a stopword, "fox" is.
	if len(terms) != 2 || terms[0] != "the" || terms[1] != "run" {
		t.Errorf("terms = %v", terms)
	}
	none := New(termmap.NewDictionary(), Options{Stopwords: []string{}})
	if got := none.Terms("the cat"); len(got) != 2 {
		t.Errorf("empty stopword list: %v", got)
	}
}

func TestDisableStemming(t *testing.T) {
	tok := New(termmap.NewDictionary(), Options{DisableStemming: true})
	terms := tok.Terms("running databases")
	if terms[0] != "running" || terms[1] != "databases" {
		t.Errorf("terms = %v", terms)
	}
}

func TestStemExamples(t *testing.T) {
	cases := map[string]string{
		"running":      "run",
		"stopped":      "stop",
		"databases":    "database",
		"queries":      "query",
		"relational":   "relate",
		"organization": "organize",
		"happiness":    "happy",
		"management":   "manag",
		"engineers":    "engineer",
		"pass":         "pass",
		"falling":      "fall",
		"go":           "go",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDocumentCountsOccurrences(t *testing.T) {
	tok := newTok()
	doc, err := tok.Document(3, "join join join query")
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != 3 || len(doc.Cells) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	j, _ := tok.Dictionary().Lookup("join")
	if doc.Weight(j) != 3 {
		t.Errorf("join weight = %d, want 3", doc.Weight(j))
	}
}

func TestSharedDictionaryAcrossDocuments(t *testing.T) {
	tok := newTok()
	d1, _ := tok.Document(0, "database systems")
	d2, _ := tok.Document(1, "database engineering")
	n, ok := tok.Dictionary().Lookup("database")
	if !ok {
		t.Fatal("database not interned")
	}
	if d1.Weight(n) != 1 || d2.Weight(n) != 1 {
		t.Error("shared term has different numbers across documents")
	}
}

func TestUnicodeSplitting(t *testing.T) {
	tok := newTok()
	terms := tok.Terms("naïve café-style 'reading'")
	if len(terms) != 4 {
		t.Errorf("terms = %v", terms)
	}
}

// Property: tokenization is deterministic and every produced document
// validates.
func TestQuickTokenizeValid(t *testing.T) {
	tok := newTok()
	check := func(text string, id uint32) bool {
		id %= 1 << 24 // document numbers are 3 bytes on disk
		d1, err1 := tok.Document(id, text)
		d2, err2 := tok.Document(id, text)
		if err1 != nil || err2 != nil {
			return false
		}
		if d1.Validate() != nil || len(d1.Cells) != len(d2.Cells) {
			return false
		}
		for i := range d1.Cells {
			if d1.Cells[i] != d2.Cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
