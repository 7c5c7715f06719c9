package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"textjoin"
)

// calibrate times a fixed integer hash kernel that touches no memory
// and calls nothing in the program under test. When two sets of runs
// disagree it tells whether the machine moved.
func calibrate() float64 {
	t0 := time.Now()
	h := uint64(1469598103934665603)
	for i := uint64(0); i < 20_000_000; i++ {
		h = (h ^ i) * 1099511628211
	}
	calibSink = h
	return time.Since(t0).Seconds() * 1e3
}

var calibSink uint64

// work is what one operation asks of the layers, from its JoinStats.
type work struct {
	passes, comparisons, accumulations, entryFetches, peakKB float64
	docsScanned, entriesScanned                              float64
	cacheHits, cacheMisses, cacheEvictions                   float64
}

// workOf derives the layer counts of one join. Documents and entries
// scanned are not in JoinStats; they follow from the algorithm: HHNL
// reads the outer side once and sweeps the inner once per pass, VVM
// merges both inverted files once per pass, and HVNL scans the inner
// inverted file only when it preloads it (Passes is then 1).
func workOf(st *textjoin.JoinStats, w *world) work {
	n := work{
		passes:         float64(st.Passes),
		comparisons:    float64(st.Comparisons),
		accumulations:  float64(st.Accumulations),
		entryFetches:   float64(st.EntryFetches),
		peakKB:         float64(st.PeakMemoryBytes) / 1024,
		cacheHits:      float64(st.Cache.Hits),
		cacheMisses:    float64(st.Cache.Misses),
		cacheEvictions: float64(st.Cache.Evictions),
	}
	switch st.Algorithm {
	case textjoin.HHNL, textjoin.LSH:
		n.docsScanned = float64(st.OuterDocs) + n.passes*float64(st.InnerDocs)
	case textjoin.VVM:
		n.entriesScanned = n.passes * float64(w.inv1.Stats().Entries+w.inv2.Stats().Entries)
	case textjoin.HVNL:
		n.docsScanned = float64(st.OuterDocs)
		n.entriesScanned = n.passes * float64(w.inv1.Stats().Entries)
	}
	return n
}

func (n *work) addScaled(o work, f float64) {
	n.passes += o.passes * f
	n.comparisons += o.comparisons * f
	n.accumulations += o.accumulations * f
	n.entryFetches += o.entryFetches * f
	n.peakKB = max(n.peakKB, o.peakKB)
	n.docsScanned += o.docsScanned * f
	n.entriesScanned += o.entriesScanned * f
	n.cacheHits += o.cacheHits * f
	n.cacheMisses += o.cacheMisses * f
	n.cacheEvictions += o.cacheEvictions * f
}

// perLayer runs a workload's traced run and reports the per-layer
// metrics: three fifths of a run's rounds untraced, one fifth with a
// harness span around every call into the program, then a drive of each
// layer's public functions over the workload's own data. No end-to-end
// metric is taken from this run.
func perLayer(s spec, seed int64, nRounds int, spansDir string) (*outcome, error) {
	runtime.GC()
	fx, err := s.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	defer fx.close()
	if err := warmUp(fx); err != nil {
		return nil, err
	}
	list := opList(fx.kinds(), s.passes, seed)
	untraced := max(1, nRounds*3/5)
	var calib []float64
	for i := 0; i < 3; i++ {
		calib = append(calib, calibrate())
	}
	rs, used, err := runRounds(fx, nil, list, untraced, 0)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, _, err := runRounds(fx, rec, list, max(1, nRounds/5), untraced*len(list))
	if err != nil {
		return nil, err
	}

	var all []sample
	for _, r := range rs {
		all = append(all, r.samples...)
	}
	server, solo, err := fx.serverMetrics(all)
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: s.name}
	out.count(append(append(rs, traced...), round{samples: solo}))

	w := fx.world()
	setupMs := w.phaseMs
	if err := w.complete(); err != nil {
		return nil, err
	}
	outer, opts := fx.probe()
	d, err := drive(rec, w, outer, opts, fx.stats(0), seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(spansDir, s.name+".spans.json")); err != nil {
		return nil, err
	}

	// Work per operation is the mean over the listed kinds, which the
	// list holds in equal numbers. Time per comparison or accumulation
	// divides the quiet latency of the kinds that do any by their count.
	var n work
	var listed, cmpMs, cmpN, accMs, accN float64
	for _, kd := range fx.kinds() {
		if !kd.solo {
			listed++
		}
	}
	for k, kd := range fx.kinds() {
		if kd.solo {
			continue
		}
		st := fx.stats(k)
		n.addScaled(workOf(st, w), 1/listed)
		kindMs := percentile(pick(all, k, latencyOf), quiet)
		if st.Comparisons > 0 {
			cmpMs, cmpN = cmpMs+kindMs, cmpN+float64(st.Comparisons)
		}
		if st.Accumulations > 0 {
			accMs, accN = accMs+kindMs, accN+float64(st.Accumulations)
		}
	}
	ops := float64(len(all))
	latencies := pick(all, -1, latencyOf)
	mean := func(f func(sample) float64) float64 { return sum(pick(all, -1, f)) / ops }
	quietMs := overRounds(rs, quiet, round.meanMs)
	share := func(unitNs, count float64) float64 { return unitNs * count / (quietMs * 1e6) }

	out.metrics = []metric{
		{"driver.calib_ms", median(calib), "ms"},
		{"driver.op_ms_p50", median(latencies), "ms"},
		{"driver.op_ms_p90", percentile(latencies, 90), "ms"},
		{"driver.op_ms_max", percentile(latencies, 100), "ms"},
		{"driver.round_spread_frac", ratio(overRounds(rs, 100-quiet, round.meanMs)-quietMs, overRounds(rs, 50, round.meanMs)), "fraction"},
		{"driver.trace_overhead_frac", ratio(overRounds(traced, quiet, round.meanMs), quietMs) - 1, "fraction"},
		{"driver.gc_cycles_per_op", used.gcCycles / ops, "count"},
		{"driver.gc_pause_ms_per_op", used.gcPauseMs / ops, "ms"},
		{"setup.generate_ms", setupMs["generate"], "ms"},
		{"setup.invfile_build_ms", setupMs["invfile_build"], "ms"},
		{"setup.load_index_ms", setupMs["load_index"], "ms"},
		{"setup.signature_build_ms", setupMs["signature_build"], "ms"},
		{"setup.lsh_build_ms", setupMs["lsh_build"], "ms"},
		{"core.passes_per_op", n.passes, "count"},
		{"core.comparisons_per_op", n.comparisons, "count"},
		{"core.ns_per_comparison", ratio(cmpMs*1e6, cmpN), "ns"},
		{"core.accumulations_per_op", n.accumulations, "count"},
		{"core.ns_per_accumulation", ratio(accMs*1e6, accN), "ns"},
		{"core.entry_fetches_per_op", n.entryFetches, "count"},
		{"core.peak_memory_kb", n.peakKB, "KiB"},
		{"core.choose_us", d.chooseUs, "us"},
		{"core.prefilter.pages_skipped_per_op", mean(func(sm sample) float64 { return float64(sm.prefilter.PagesSkipped) }), "pages"},
		{"core.prefilter.false_passes_per_op", mean(func(sm sample) float64 { return float64(sm.prefilter.FalsePasses) }), "count"},
		{"core.lsh.candidates_per_op", mean(func(sm sample) float64 { return float64(sm.lsh.Candidates) }), "count"},
		{"core.lsh.pages_skipped_per_op", mean(func(sm sample) float64 { return float64(sm.lsh.PagesSkipped) }), "pages"},
		{"iosim.seq_reads_per_op", mean(func(sm sample) float64 { return float64(sm.seqReads) }), "pages"},
		{"iosim.rand_reads_per_op", mean(func(sm sample) float64 { return float64(sm.randReads) }), "pages"},
		{"iosim.read_ns_per_page", d.readNsPerPage, "ns"},
		{"codec.decode_ns_per_cell", d.decodeNsPerCell, "ns"},
		{"collection.scan_ns_per_doc", d.scanNsPerDoc, "ns"},
		{"collection.scan_share", share(d.scanNsPerDoc, n.docsScanned), "fraction"},
		{"collection.fetch_ns_per_doc", d.fetchNsPerDoc, "ns"},
		{"document.score_ns_per_pair", d.scoreNsPerPair, "ns"},
		{"document.score_share", share(d.scoreNsPerPair, n.comparisons), "fraction"},
		{"topk.offer_ns", d.offerNs, "ns"},
		{"invfile.scan_ns_per_entry", d.invScanNsPerEntry, "ns"},
		{"invfile.scan_share", share(d.invScanNsPerEntry, n.entriesScanned), "fraction"},
		{"invfile.fetch_ns_per_entry", d.invFetchNsPerEntry, "ns"},
		{"invfile.fetch_share", share(d.invFetchNsPerEntry, n.entryFetches), "fraction"},
		{"btree.lookup_ns", d.lookupNs, "ns"},
		{"entrycache.hit_ratio", ratio(n.cacheHits, n.cacheHits+n.cacheMisses), "fraction"},
		{"entrycache.evictions_per_op", n.cacheEvictions, "count"},
		{"entrycache.access_ns", d.cacheAccessNs, "ns"},
		{"accum.add_ns", d.accumAddNs, "ns"},
		{"signature.pageskip_ns", d.pageSkipNs, "ns"},
		{"lsh.keys_ns_per_doc", d.lshKeysNsPerDoc, "ns"},
	}
	for _, m := range serverMetricUnits {
		out.metrics = append(out.metrics, metric{m.name, server[m.name], m.unit})
	}
	return out, nil
}
