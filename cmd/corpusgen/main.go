// Command corpusgen emits synthetic document collections in the portable
// text format (one document per line: "docID term:occurrences ...").
//
// Usage:
//
//	corpusgen -profile wsj -scale 256 -seed 1 -out corpus.txt
//	corpusgen -docs 500 -terms-per-doc 40 -vocab 5000 -out corpus.txt
//
// The named profiles carry the statistics of the paper's TREC collections
// (WSJ, FR, DOE); -scale shrinks them for laptop-scale experiments while
// preserving vocabulary density.
package main

import (
	"flag"
	"fmt"
	"os"

	"textjoin"
	"textjoin/internal/corpus"
)

func main() {
	profile := flag.String("profile", "", "paper profile: wsj, fr or doe (overrides -docs/-terms-per-doc/-vocab)")
	scale := flag.Int64("scale", 1, "shrink divisor applied to the profile")
	docs := flag.Int64("docs", 100, "number of documents (custom profile)")
	termsPerDoc := flag.Float64("terms-per-doc", 20, "mean distinct terms per document (custom profile)")
	vocab := flag.Int64("vocab", 2000, "vocabulary size (custom profile)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "-", "output file, - for stdout")
	flag.Parse()

	if err := run(*profile, *scale, *docs, *termsPerDoc, *vocab, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

func run(profileName string, scale, nDocs int64, termsPerDoc float64, vocab, seed int64, out string) error {
	var p corpus.Profile
	if profileName != "" {
		var err error
		p, err = corpus.ProfileByName(profileName)
		if err != nil {
			return err
		}
		p = p.Scaled(scale)
	} else {
		p = corpus.Profile{Name: "custom", NumDocs: nDocs, TermsPerDoc: termsPerDoc, DistinctTerms: vocab}
	}

	g, err := corpus.NewGenerator(p, seed)
	if err != nil {
		return err
	}
	generated := make([]*textjoin.Document, 0, p.NumDocs)
	for id := int64(0); id < p.NumDocs; id++ {
		generated = append(generated, g.Document(uint32(id)))
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(w, "# profile=%s docs=%d terms/doc=%.1f vocab=%d seed=%d\n",
		p.Name, p.NumDocs, p.TermsPerDoc, p.DistinctTerms, seed)
	return corpus.WriteText(w, generated)
}
