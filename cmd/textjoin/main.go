// Command textjoin runs a textual join between two document collections.
//
// Collections come either from portable text files produced by corpusgen
// (-c1/-c2) or from generated profiles (-p1/-p2 with -scale). The join is
// C1 SIMILAR_TO(λ) C2: for each document of C2, the λ most similar
// documents of C1.
//
// Usage:
//
//	textjoin -p1 wsj -p2 wsj -scale 512 -alg auto -lambda 5 -mem 100
//	textjoin -c1 a.txt -c2 b.txt -alg vvm -show 3
//
// With -alg auto the integrated algorithm estimates all three costs and
// runs the cheapest; -explain prints the estimates.
//
// The program is written on the textjoin facade alone: its disk,
// collections and inverted files come from a Workspace, so a -save-disk
// snapshot re-attaches with LoadWorkspace, OpenCollection("c1", N) and
// OpenInvertedFile.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"textjoin"
	"textjoin/internal/corpus"
	"textjoin/internal/reqtrace"
)

func main() {
	c1Path := flag.String("c1", "", "inner collection file (portable text format)")
	c2Path := flag.String("c2", "", "outer collection file (portable text format)")
	p1 := flag.String("p1", "", "inner profile: wsj, fr, doe (alternative to -c1)")
	p2 := flag.String("p2", "", "outer profile: wsj, fr, doe (alternative to -c2)")
	scale := flag.Int64("scale", 512, "profile shrink divisor")
	seed := flag.Int64("seed", 1, "generation seed")
	alg := flag.String("alg", "auto", "algorithm: auto, hhnl, hvnl, vvm")
	lambda := flag.Int("lambda", 20, "λ of SIMILAR_TO(λ)")
	mem := flag.Int64("mem", 10000, "memory budget B in pages")
	alpha := flag.Float64("alpha", 5, "random/sequential I/O cost ratio α")
	weighting := flag.String("weighting", "raw", "similarity weighting: raw, cosine, tfidf")
	show := flag.Int("show", 5, "print the matches of the first N outer documents")
	explain := flag.Bool("explain", false, "print the integrated algorithm's cost estimates")
	queries := flag.String("queries", "", "run a memory-resident query batch (portable text format) against C1 instead of a stored C2")
	saveDisk := flag.String("save-disk", "", "after building, snapshot the whole simulated disk to this file")
	telemetryMode := flag.String("telemetry", "", "emit a telemetry snapshot, then the run's span tree, to stderr after the join: text or json")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); with -telemetry also /metrics")
	flag.Parse()

	// With -telemetry the run is one traced request: a collector for the
	// counts, one root span for where the time went.
	var tel *textjoin.Telemetry
	var sink textjoin.TelemetrySink
	var root *textjoin.RequestSpan
	if *telemetryMode != "" {
		var err error
		sink, err = textjoin.TelemetrySinkFor(*telemetryMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "textjoin:", err)
			os.Exit(1)
		}
		tel = textjoin.NewTelemetry()
		root = textjoin.NewRequestTracer(1).StartTrace("textjoin")
	}
	if *pprofAddr != "" {
		// Alongside pprof, expose the live collector (when -telemetry is
		// on) in the format textjoind serves.
		if tel != nil {
			http.Handle("/metrics", textjoin.NewMetricsExporter(tel))
		}
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "textjoin: pprof:", err)
			}
		}()
	}

	var err error
	if *queries != "" {
		err = runBatch(*c1Path, *p1, *scale, *seed, *queries, *lambda, *mem, *alpha, *weighting, *show, tel, root)
	} else {
		_, err = run(*c1Path, *c2Path, *p1, *p2, *scale, *seed, *alg, *lambda, *mem, *alpha, *weighting, *show, *explain, *saveDisk, tel, root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "textjoin:", err)
		os.Exit(1)
	}
	if tel != nil {
		trace := root.Data()
		reqtrace.ObservePhases(tel, trace)
		if err = sink.Export(os.Stderr, tel.Snapshot()); err == nil {
			err = reqtrace.Export(os.Stderr, *telemetryMode, trace)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "textjoin: telemetry export:", err)
			os.Exit(1)
		}
	}
}

// saveSnapshot serializes the workspace so the built corpus and index
// structures can be inspected or reused.
func saveSnapshot(ws *textjoin.Workspace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Backstop release for the error path; the success path checks the
	// explicit Close below and the second Close is a no-op.
	defer f.Close()
	if _, err := ws.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// readDocs parses a portable text file.
func readDocs(path string) ([]*textjoin.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadText(f)
}

// operand is one stored side of the join with its inverted file, and the
// label the report prints for it: the file name it is stored under, or
// the scaled profile's own name ("WSJ/512") when generated.
type operand struct {
	c     *textjoin.Collection
	inv   *textjoin.InvertedFile
	label string
}

// load stores one operand on the workspace under name — parsed from a
// portable text file or generated from a paper profile — and builds its
// inverted file.
func load(ws *textjoin.Workspace, name, path, profile string, scale, seed int64) (operand, error) {
	op := operand{label: name}
	var err error
	switch {
	case path != "":
		var docs []*textjoin.Document
		if docs, err = readDocs(path); err != nil {
			return op, err
		}
		// A stored collection's ids are dense: reassign them in file order.
		for i, d := range docs {
			docs[i] = &textjoin.Document{ID: uint32(i), Cells: d.Cells}
		}
		op.c, err = ws.NewCollection(name, docs)
	case profile != "":
		var p corpus.Profile
		if p, err = corpus.ProfileByName(profile); err != nil {
			return op, err
		}
		op.label = p.Scaled(scale).Name
		op.c, err = ws.GenerateProfile(name, profile, scale, seed)
	default:
		err = fmt.Errorf("collection %s: provide a file or a profile", name)
	}
	if err != nil {
		return op, err
	}
	op.inv, err = ws.BuildInvertedFile(op.c)
	return op, err
}

func printMatches(who string, results []textjoin.Result, show int) {
	for i, r := range results {
		if i >= show {
			break
		}
		fmt.Printf("%s %d:", who, r.Outer)
		for _, m := range r.Matches {
			fmt.Printf("  (%d, %.4g)", m.Doc, m.Sim)
		}
		fmt.Println()
	}
}

// runBatch joins an ad-hoc query batch (no stored collection, no inverted
// file on the batch) against C1 — the paper's batch-query scenario. The
// integrated algorithm picks between HHNL and HVNL; VVM is inapplicable.
func runBatch(c1Path, p1 string, scale, seed int64, queriesPath string, lambda int, mem int64, alpha float64, weighting string, show int, tel *textjoin.Telemetry, trace *textjoin.RequestSpan) error {
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(alpha))
	c1, err := load(ws, "c1", c1Path, p1, scale, seed)
	if err != nil {
		return err
	}
	docs, err := readDocs(queriesPath)
	if err != nil {
		return err
	}
	batch, err := textjoin.NewBatch("queries", docs)
	if err != nil {
		return err
	}
	ws.ResetIOStats()
	ws.SetTelemetry(tel)

	w, err := textjoin.ParseWeighting(weighting)
	if err != nil {
		return err
	}
	in := textjoin.Inputs{Outer: batch, Inner: c1.c, InnerInv: c1.inv}
	opts := textjoin.Options{Lambda: lambda, MemoryPages: mem, Weighting: w, Telemetry: tel, Trace: trace}
	results, stats, dec, err := textjoin.JoinIntegrated(in, opts)
	if err != nil {
		return err
	}
	fmt.Printf("batch: %d queries against %s (N=%d)\n", batch.NumDocs(), c1.label, c1.c.NumDocs())
	fmt.Printf("integrated choice: %v (VVM inapplicable for a batch)\n", dec.Chosen)
	fmt.Printf("I/O: %s  cost=%.0f\n", stats.IO, stats.Cost)
	printMatches("query", results, show)
	return nil
}

// run joins two stored collections and returns the full result set next
// to what it printed.
func run(c1Path, c2Path, p1, p2 string, scale, seed int64, algName string, lambda int, mem int64, alpha float64, weighting string, show int, explain bool, saveDisk string, tel *textjoin.Telemetry, trace *textjoin.RequestSpan) ([]textjoin.Result, error) {
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(alpha))
	c1, err := load(ws, "c1", c1Path, p1, scale, seed)
	if err != nil {
		return nil, err
	}
	c2, err := load(ws, "c2", c2Path, p2, scale, seed+1)
	if err != nil {
		return nil, err
	}
	if saveDisk != "" {
		if err := saveSnapshot(ws, saveDisk); err != nil {
			return nil, err
		}
		fmt.Printf("disk snapshot written to %s\n", saveDisk)
	}
	ws.ResetIOStats()
	ws.SetTelemetry(tel)

	w, err := textjoin.ParseWeighting(weighting)
	if err != nil {
		return nil, err
	}
	in := textjoin.Inputs{Outer: c2.c, Inner: c1.c, InnerInv: c1.inv, OuterInv: c2.inv}
	opts := textjoin.Options{Lambda: lambda, MemoryPages: mem, Weighting: w, Telemetry: tel, Trace: trace}

	st1, st2 := c1.c.Stats(), c2.c.Stats()
	fmt.Printf("C1: %s  N=%d K=%.1f T=%d D=%d pages\n", c1.label, st1.N, st1.K, st1.T, st1.D)
	fmt.Printf("C2: %s  N=%d K=%.1f T=%d D=%d pages\n", c2.label, st2.N, st2.K, st2.T, st2.D)

	var results []textjoin.Result
	var stats *textjoin.JoinStats
	if algName == "auto" {
		var dec textjoin.Decision
		results, stats, dec, err = textjoin.JoinIntegrated(in, opts)
		if err != nil {
			return nil, err
		}
		fmt.Printf("integrated choice: %v\n", dec.Chosen)
		if explain {
			for _, e := range dec.Estimates {
				fmt.Printf("  %-5v seq=%.0f rand=%.0f\n", e.Algorithm, e.Seq, e.Rand)
			}
		}
	} else {
		a, err := textjoin.ParseAlgorithm(algName)
		if err != nil {
			return nil, err
		}
		results, stats, err = textjoin.Join(a, in, opts)
		if err != nil {
			return nil, err
		}
	}

	fmt.Printf("join: %v  outer=%d inner=%d passes=%d\n",
		stats.Algorithm, stats.OuterDocs, stats.InnerDocs, stats.Passes)
	fmt.Printf("I/O: %s  cost=%.0f (alpha=%.1f)\n", stats.IO, stats.Cost, alpha)
	if stats.Algorithm == textjoin.HVNL {
		fmt.Printf("cache: hits=%d misses=%d evictions=%d hit-rate=%.2f\n",
			stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions, stats.Cache.HitRate())
	}
	printMatches("C2 doc", results, show)
	return results, nil
}
