package core_test

import (
	"io"
	"strings"
	"sync"
	"testing"

	"textjoin"
)

// TestTelemetryConcurrentSnapshots runs joins of every exact family and
// the integrated plan concurrently, each through its own view, while
// another goroutine scrapes the shared collector continuously and
// textjoin.RecordJoin adds each finished join to it. Recording must be safe
// under concurrency, leave the results as a serial run returns them, and
// add up to exactly what the joins returned: their Stats, their plans and
// the disk's merged page-read ledger.
func TestTelemetryConcurrentSnapshots(t *testing.T) {
	ws := textjoin.NewWorkspace()
	c1, err := ws.GenerateProfile("c1", "wsj", 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.GenerateProfile("c2", "fr", 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		t.Fatal(err)
	}
	in := textjoin.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	opts := textjoin.Options{Lambda: 5, MemoryPages: 50}
	algs := []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL, textjoin.VVM, textjoin.Auto}
	want := map[textjoin.Algorithm]string{}
	for _, alg := range algs {
		res, _, err := textjoin.Join(alg, in, opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		want[alg] = textjoin.ResultDigest(res)
	}
	// Binding a view loads the term indexes through the shared files, as
	// textjoind does at startup: load them before the ledger is reset.
	for _, inv := range []*textjoin.InvertedFile{inv1, inv2} {
		if _, err := inv.LoadIndex(); err != nil {
			t.Fatal(err)
		}
	}
	ws.ResetIOStats()

	tel := textjoin.NewTelemetry()
	exp := textjoin.NewMetricsExporter(tel, nil)
	done := make(chan struct{})
	var snapshots sync.WaitGroup
	snapshots.Add(1)
	go func() {
		defer snapshots.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := exp.WriteMetrics(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var mu sync.Mutex
	outerDocs, chosen := map[string]int64{}, map[string]int64{}
	var joins sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, alg := range algs {
			joins.Add(1)
			go func() {
				defer joins.Done()
				dec, err := textjoin.Plan(alg, in, opts)
				if err != nil {
					t.Errorf("%v: %v", alg, err)
					return
				}
				v := ws.Snapshot()
				defer v.Close()
				bound, err := in.WithView(v)
				if err != nil {
					t.Errorf("%v: %v", alg, err)
					return
				}
				res, st, err := dec.Run(bound, opts)
				if err != nil {
					t.Errorf("%v: %v", alg, err)
					return
				}
				textjoin.RecordJoin(tel, dec, st, v.FileStats())
				if got := textjoin.ResultDigest(res); got != want[alg] {
					t.Errorf("%v under concurrent snapshots: digest %s, want %s", alg, got, want[alg])
				}
				mu.Lock()
				defer mu.Unlock()
				outerDocs[strings.ToLower(st.Algorithm.String())] += st.OuterDocs
				if alg == textjoin.Auto {
					chosen[strings.ToLower(dec.Chosen.String())]++
				}
			}()
		}
	}
	joins.Wait()
	close(done)
	snapshots.Wait()

	for alg, n := range outerDocs {
		series := "textjoin_join_" + alg + "_outer_docs_total"
		if got := tel.Value(series); got != n {
			t.Errorf("%s = %d, want %d", series, got, n)
		}
	}
	for alg, n := range chosen {
		series := `textjoin_plan_chosen_total{alg="` + alg + `"}`
		if got := tel.Value(series); got != n {
			t.Errorf("%s = %d, want %d", series, got, n)
		}
	}
	var seq, rand int64
	for _, file := range ws.Disk().Files() {
		seq += tel.Value(`textjoin_iosim_file_seq_reads_total{file="` + file + `"}`)
		rand += tel.Value(`textjoin_iosim_file_rand_reads_total{file="` + file + `"}`)
	}
	if disk := ws.Disk().Stats(); seq != disk.SeqReads || rand != disk.RandReads || seq+rand == 0 {
		t.Errorf("textjoin_iosim_file series sum to seq=%d rand=%d, the disk's ledger is %v", seq, rand, disk)
	}
}
