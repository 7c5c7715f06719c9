package main

import (
	"errors"
	"io"
	"math/rand"
	"time"

	"textjoin"
	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/document"
	"textjoin/internal/entrycache"
	"textjoin/internal/invfile"
	"textjoin/internal/signature"
	"textjoin/internal/topk"
)

// drives are the unit costs of the layers: each is the self time of a
// span around a loop over one layer's public functions, divided by the
// number of units the loop handled. The loops run over the workload's
// own collections and over the term stream its outer documents probe
// with, so a unit cost and a count from the same workload multiply to a
// share of its operation time.
type drives struct {
	readNsPerPage, decodeNsPerCell, scanNsPerDoc, fetchNsPerDoc float64
	scoreNsPerPair, offerNs                                     float64
	invScanNsPerEntry, invFetchNsPerEntry, lookupNs             float64
	cacheAccessNs, accumAddNs, pageSkipNs, lshKeysNsPerDoc      float64
	chooseUs                                                    float64
}

// probeDocs caps the outer documents the probing drives replay.
const probeDocs = 600

func drive(rec *recorder, w *world, outer textjoin.Reader, opts textjoin.Options, st *textjoin.JoinStats, seed int64) (drives, error) {
	var d drives
	root := rec.start("drive", -1, "drive")
	defer rec.end(root)
	// run times f under a span and returns nanoseconds per unit.
	run := func(name string, f func() (units int, err error)) (float64, error) {
		id := rec.start("drive", root, name)
		units, err := f()
		rec.end(id)
		return ratio(float64(selfNs(rec.spans, id)), float64(units)), err
	}
	atLeast := func(total, per int) int { return max(1, (total+per-1)/max(per, 1)) }

	inner, err := readDocs(w.c1)
	if err != nil {
		return d, err
	}
	probe, err := readDocs(outer)
	if err != nil {
		return d, err
	}
	probe = probe[:min(len(probe), probeDocs)]
	var stream []uint32
	for _, doc := range probe {
		for _, c := range doc.Cells {
			stream = append(stream, c.Term)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	file, n1 := w.c1.File(), int(w.c1.NumDocs())

	if d.readNsPerPage, err = run("iosim.File.ReadPage", func() (int, error) {
		pages := int(file.Pages())
		reps := atLeast(20_000, pages)
		for r := 0; r < reps; r++ {
			for p := 0; p < pages; p++ {
				if _, err := file.ReadPage(int64(p)); err != nil {
					return 0, err
				}
			}
		}
		return reps * pages, nil
	}); err != nil {
		return d, err
	}

	raw, err := file.ReadAt(0, file.Size())
	if err != nil {
		return d, err
	}
	if d.decodeNsPerCell, err = run("codec.DecodeRecordInto", func() (int, error) {
		var cells []codec.Cell
		total := int(w.c1.Stats().TotalCells)
		reps := atLeast(2_000_000, total)
		for r := 0; r < reps; r++ {
			for id := 0; id < n1; id++ {
				ref, err := w.c1.Ref(uint32(id))
				if err != nil {
					return 0, err
				}
				if _, cells, _, err = codec.DecodeRecordInto(raw[ref.Off:ref.Off+int64(ref.Len)], cells[:0]); err != nil {
					return 0, err
				}
			}
		}
		return reps * total, nil
	}); err != nil {
		return d, err
	}

	if d.scanNsPerDoc, err = run("collection.Scan+NextReuse", func() (int, error) {
		reps := atLeast(20_000, n1)
		for r := 0; r < reps; r++ {
			sc := w.c1.Scan()
			for {
				if _, err := sc.NextReuse(); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					return 0, err
				}
			}
		}
		return reps * n1, nil
	}); err != nil {
		return d, err
	}

	if d.fetchNsPerDoc, err = run("collection.Fetch", func() (int, error) {
		reps := atLeast(5_000, len(probe))
		for r := 0; r < reps; r++ {
			for _, doc := range probe {
				if _, err := w.c2.Fetch(doc.ID); err != nil {
					return 0, err
				}
			}
		}
		return reps * len(probe), nil
	}); err != nil {
		return d, err
	}

	// Pairs in the order HHNL makes them: a resident block of outer
	// documents against inner documents in storage order, both starting
	// at an offset drawn from the seed.
	d.scoreNsPerPair, _ = run("document.DotCells", func() (int, error) {
		const pairs = 100_000
		block := min(256, len(probe))
		o0, i0 := rng.Intn(len(probe)), rng.Intn(len(inner))
		var s float64
		for i := 0; i < pairs/block; i++ {
			in := inner[(i0+i)%len(inner)]
			for o := 0; o < block; o++ {
				s += document.DotCells(probe[(o0+o)%len(probe)].Cells, in.Cells)
			}
		}
		floatSink = s
		return pairs / block * block, nil
	})

	d.offerNs, _ = run("topk.Offer", func() (int, error) {
		const offers = 500_000
		tk := topk.New(lambda)
		for i := 0; i < offers; i++ {
			if i%n1 == 0 {
				tk.Reset()
			}
			tk.Offer(uint32(rng.Intn(n1)), rng.Float64())
		}
		return offers, nil
	})

	if d.invScanNsPerEntry, err = run("invfile.Scan+NextReuse", func() (int, error) {
		entries := int(w.inv1.Stats().Entries)
		reps := atLeast(50_000, entries)
		for r := 0; r < reps; r++ {
			sc := w.inv1.Scan()
			for {
				if _, err := sc.NextReuse(); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					return 0, err
				}
			}
		}
		return reps * entries, nil
	}); err != nil {
		return d, err
	}

	index, err := w.inv1.LoadIndex()
	if err != nil {
		return d, err
	}
	d.lookupNs, _ = run("btree.MemIndex.Lookup", func() (int, error) {
		reps := atLeast(500_000, len(stream))
		found := 0
		for r := 0; r < reps; r++ {
			for _, term := range stream {
				if _, ok := index.Lookup(term); ok {
					found++
				}
			}
		}
		intSink = found
		return reps * len(stream), nil
	})

	// The distinct probed terms that C1 has, in first-probe order.
	var terms []uint32
	entries := map[uint32]*invfile.Entry{}
	for _, term := range stream {
		if _, dup := entries[term]; !dup && index.Contains(term) && len(terms) < 4000 {
			entries[term] = nil
			terms = append(terms, term)
		}
	}
	if d.invFetchNsPerEntry, err = run("invfile.FetchEntry", func() (int, error) {
		for _, term := range terms {
			e, err := w.inv1.FetchEntry(term)
			if err != nil {
				return 0, err
			}
			entries[term] = e
		}
		return len(terms), nil
	}); err != nil {
		return d, err
	}

	// A cache a quarter the size of what the stream touches, so that
	// hits, misses and evictions all happen, under the paper's policy.
	var touched int64
	for _, term := range terms {
		touched += entries[term].Bytes() + 3
	}
	d.cacheAccessNs, _ = run("entrycache.Get+Put", func() (int, error) {
		cache := entrycache.New(touched/4, entrycache.MinOuterDF, w.c2.DF)
		gets := 0
		for _, term := range stream {
			e := entries[term]
			if e == nil {
				continue
			}
			gets++
			if _, ok := cache.Get(term); !ok {
				cache.Put(term, e, e.Bytes()+3)
			}
		}
		return gets, nil
	})

	// HVNL adds into one flat row per outer document; VVM adds into the
	// dense or table store its budget selects, one row per outer
	// document of the partition.
	const maxAdds = 3_000_000
	d.accumAddNs, _ = run("accum.Add", func() (int, error) {
		adds := 0
		if st.Algorithm == textjoin.VVM {
			rows := max(1, len(probe)/max(st.Passes, 1))
			acc := accum.New(rows, n1, st.PeakMemoryBytes)
			for row, doc := range probe[:rows] {
				for _, c := range doc.Cells {
					if e := entries[c.Term]; e != nil && adds < maxAdds {
						for _, cell := range e.Cells {
							acc.Add(row, cell.Number, float64(c.Weight)*float64(cell.Weight))
						}
						adds += len(e.Cells)
					}
				}
			}
			intSink = acc.Len()
			return adds, nil
		}
		acc := accum.NewFlat(n1)
		for _, doc := range probe {
			for _, c := range doc.Cells {
				if e := entries[c.Term]; e != nil && adds < maxAdds {
					for _, cell := range e.Cells {
						acc.Add(cell.Number, float64(c.Weight)*float64(cell.Weight))
					}
					adds += len(e.Cells)
				}
			}
			acc.Reset()
		}
		return adds, nil
	})

	sigCfg := w.sig1.Config()
	sigs := make([]signature.Sig, len(probe))
	for i, doc := range probe {
		sigs[i] = sigCfg.FromDoc(nil, doc)
	}
	d.pageSkipNs, _ = run("signature.Sidecar.PageSkip", func() (int, error) {
		reps := atLeast(20_000, len(sigs))
		var skipped int64
		for r := 0; r < reps; r++ {
			for _, q := range sigs {
				s, _ := w.sig1.PageSkip(q)
				skipped += s
			}
		}
		intSink = int(skipped)
		return reps * len(sigs), nil
	})

	d.lshKeysNsPerDoc, _ = run("lsh.Config.Keys", func() (int, error) {
		cfg := w.lsh1.Config()
		docs := probe[:min(len(probe), 200)]
		var keys []uint64
		for _, doc := range docs {
			keys = cfg.Keys(doc, keys)
		}
		return len(docs), nil
	})

	in := w.inputs()
	in.Outer = outer
	var choose []float64
	for i := 0; i < 5; i++ {
		id := rec.start("drive", root, "textjoin.Choose")
		t0 := time.Now()
		_, err := textjoin.Choose(in, opts)
		choose = append(choose, float64(time.Since(t0).Nanoseconds())/1e3)
		rec.end(id)
		if err != nil {
			return d, err
		}
	}
	d.chooseUs = median(choose)
	return d, nil
}

// Sinks keep the compiler from dropping a drive's loop.
var (
	floatSink float64
	intSink   int
)
