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
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
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
	var tel *telemetry.Collector
	var sink telemetry.Sink
	var root *reqtrace.Span
	if *telemetryMode != "" {
		var err error
		sink, err = telemetry.SinkFor(*telemetryMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "textjoin:", err)
			os.Exit(1)
		}
		tel = telemetry.New()
		root = reqtrace.NewTracer(1, time.Now).StartTrace("textjoin")
	}
	if *pprofAddr != "" {
		// Alongside pprof, expose the live collector (when -telemetry is
		// on) in the format textjoind serves.
		if tel != nil {
			http.Handle("/metrics", metrics.NewExporter(tel))
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
		err = run(*c1Path, *c2Path, *p1, *p2, *scale, *seed, *alg, *lambda, *mem, *alpha, *weighting, *show, *explain, *saveDisk, tel, root)
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

// saveSnapshot serializes the simulated disk so the built corpus and
// index structures can be inspected or reused.
func saveSnapshot(d *iosim.Disk, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Backstop release for the error path; the success path checks the
	// explicit Close below and the second Close is a no-op.
	defer f.Close()
	if _, err := d.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

// runBatch joins an ad-hoc query batch (no stored collection, no inverted
// file on the batch) against C1 — the paper's batch-query scenario. The
// integrated algorithm picks between HHNL and HVNL; VVM is inapplicable.
func runBatch(c1Path, p1 string, scale, seed int64, queriesPath string, lambda int, mem int64, alphaRatio float64, weighting string, show int, tel *telemetry.Collector, trace *reqtrace.Span) error {
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(alphaRatio))
	c1, err := loadCollection(d, "c1", c1Path, p1, scale, seed)
	if err != nil {
		return err
	}
	ef, err := d.Create("c1.inv")
	if err != nil {
		return err
	}
	tf, err := d.Create("c1.bt")
	if err != nil {
		return err
	}
	inv1, err := invfile.Build(c1, ef, tf)
	if err != nil {
		return err
	}
	qf, err := os.Open(queriesPath)
	if err != nil {
		return err
	}
	defer qf.Close()
	docs, err := corpus.ReadText(qf)
	if err != nil {
		return err
	}
	batch, err := collection.NewBatch("queries", docs)
	if err != nil {
		return err
	}
	d.ResetStats()
	d.SetCollector(tel)

	w, err := document.ParseWeighting(weighting)
	if err != nil {
		return err
	}
	in := core.Inputs{Outer: batch, Inner: c1, InnerInv: inv1}
	opts := core.Options{Lambda: lambda, MemoryPages: mem, Weighting: w, Telemetry: tel, Trace: trace}
	results, stats, dec, err := core.JoinIntegrated(in, opts)
	if err != nil {
		return err
	}
	fmt.Printf("batch: %d queries against %s (N=%d)\n", batch.NumDocs(), c1.Name(), c1.NumDocs())
	fmt.Printf("integrated choice: %v (VVM inapplicable for a batch)\n", dec.Chosen)
	fmt.Printf("I/O: %s  cost=%.0f\n", stats.IO, stats.Cost)
	for i, r := range results {
		if i >= show {
			break
		}
		fmt.Printf("query %d:", r.Outer)
		for _, m := range r.Matches {
			fmt.Printf("  (%d, %.4g)", m.Doc, m.Sim)
		}
		fmt.Println()
	}
	return nil
}

func loadCollection(d *iosim.Disk, name, path, profileName string, scale, seed int64) (*collection.Collection, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		docs, err := corpus.ReadText(f)
		if err != nil {
			return nil, err
		}
		file, err := d.Create(name)
		if err != nil {
			return nil, err
		}
		return corpus.BuildFromDocs(name, file, docs)
	case profileName != "":
		p, err := corpus.ProfileByName(profileName)
		if err != nil {
			return nil, err
		}
		return corpus.GenerateOn(d, name, p.Scaled(scale), seed)
	default:
		return nil, fmt.Errorf("collection %s: provide a file or a profile", name)
	}
}

func run(c1Path, c2Path, p1, p2 string, scale, seed int64, algName string, lambda int, mem int64, alpha float64, weighting string, show int, explain bool, saveDisk string, tel *telemetry.Collector, trace *reqtrace.Span) error {
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(alpha))
	c1, err := loadCollection(d, "c1", c1Path, p1, scale, seed)
	if err != nil {
		return err
	}
	c2, err := loadCollection(d, "c2", c2Path, p2, scale, seed+1)
	if err != nil {
		return err
	}
	buildInv := func(c *collection.Collection, prefix string) (*invfile.InvertedFile, error) {
		ef, err := d.Create(prefix + ".inv")
		if err != nil {
			return nil, err
		}
		tf, err := d.Create(prefix + ".bt")
		if err != nil {
			return nil, err
		}
		return invfile.Build(c, ef, tf)
	}
	inv1, err := buildInv(c1, "c1")
	if err != nil {
		return err
	}
	inv2, err := buildInv(c2, "c2")
	if err != nil {
		return err
	}
	if saveDisk != "" {
		if err := saveSnapshot(d, saveDisk); err != nil {
			return err
		}
		fmt.Printf("disk snapshot written to %s\n", saveDisk)
	}
	d.ResetStats()
	d.SetCollector(tel)

	w, err := document.ParseWeighting(weighting)
	if err != nil {
		return err
	}
	in := core.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	opts := core.Options{Lambda: lambda, MemoryPages: mem, Weighting: w, Telemetry: tel, Trace: trace}

	st1, st2 := c1.Stats(), c2.Stats()
	fmt.Printf("C1: %s  N=%d K=%.1f T=%d D=%d pages\n", c1.Name(), st1.N, st1.K, st1.T, st1.D)
	fmt.Printf("C2: %s  N=%d K=%.1f T=%d D=%d pages\n", c2.Name(), st2.N, st2.K, st2.T, st2.D)

	var results []core.Result
	var stats *core.Stats
	if algName == "auto" {
		var dec core.Decision
		results, stats, dec, err = core.JoinIntegrated(in, opts)
		if err != nil {
			return err
		}
		fmt.Printf("integrated choice: %v\n", dec.Chosen)
		if explain {
			for _, e := range dec.Estimates {
				fmt.Printf("  %-5v seq=%.0f rand=%.0f\n", e.Algorithm, e.Seq, e.Rand)
			}
		}
	} else {
		a, err := core.ParseAlgorithm(algName)
		if err != nil {
			return err
		}
		results, stats, err = core.Join(a, in, opts)
		if err != nil {
			return err
		}
	}

	fmt.Printf("join: %v  outer=%d inner=%d passes=%d\n",
		stats.Algorithm, stats.OuterDocs, stats.InnerDocs, stats.Passes)
	fmt.Printf("I/O: %s  cost=%.0f (alpha=%.1f)\n", stats.IO, stats.Cost, alpha)
	if stats.Algorithm == core.HVNL {
		fmt.Printf("cache: hits=%d misses=%d evictions=%d hit-rate=%.2f\n",
			stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions, stats.Cache.HitRate())
	}

	for i, r := range results {
		if i >= show {
			break
		}
		fmt.Printf("C2 doc %d:", r.Outer)
		for _, m := range r.Matches {
			fmt.Printf("  (%d, %.4g)", m.Doc, m.Sim)
		}
		fmt.Println()
	}
	return nil
}
