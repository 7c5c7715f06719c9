// Costexplorer sweeps the paper's cost model over memory sizes and shows
// where the algorithm of choice flips — the insight behind the paper's
// integrated algorithm ("no one algorithm is definitely better than all
// other algorithms in all circumstances").
//
// It prints, for a chosen collection pair, the estimated cost of each
// algorithm across a B sweep with the winner marked, then repeats the
// exercise for a selection of m surviving outer documents (the Group 3
// shape, where HVNL takes over at small m), and finally shows how the
// extended model (CPU + communication, the paper's further-studies item
// 2) can overturn an I/O-only choice.
package main

import (
	"fmt"
	"math"

	"textjoin"
)

func main() {
	wsj := textjoin.Profiles()[0].Stats()
	q := textjoin.QueryParams{Lambda: 20, Delta: 0.1}

	fmt.Println("WSJ ⋈ WSJ, varying memory B (pages):")
	fmt.Printf("%10s %12s %12s %12s   %s\n", "B", "HHNL", "HVNL", "VVM", "winner")
	for _, b := range []int64{2500, 5000, 10000, 20000, 40000, 60000, 80000} {
		sys := textjoin.System{B: b, P: 4096, Alpha: 5}
		ests := textjoin.EstimateCosts(textjoin.CostInput{C1: wsj, C2: wsj}, sys, q)
		printRow(fmt.Sprintf("%d", b), ests)
	}

	fmt.Println("\nselection leaves m documents of WSJ as C2 (inverted file keeps full size):")
	fmt.Printf("%10s %12s %12s %12s   %s\n", "m", "HHNL", "HVNL", "VVM", "winner")
	sys := textjoin.System{B: 10000, P: 4096, Alpha: 5}
	for _, m := range []int64{1, 5, 10, 25, 50, 100, 500} {
		sub := textjoin.CollectionStats{N: m, K: wsj.K, T: growth(wsj, m)}
		in := textjoin.CostInput{C1: wsj, C2: sub, InvOnC1: wsj, InvOnC2: wsj, C2Random: true}
		printRow(fmt.Sprintf("%d", m), textjoin.EstimateCosts(in, sys, q))
	}

	fmt.Println("\nextended model: DOE ⋈ DOE with a slow CPU (1000 ops per page-read time):")
	doe := textjoin.Profiles()[2].Stats()
	in := textjoin.CostInput{C1: doe, C2: doe}
	ioOnly := textjoin.EstimateCosts(in, sys, q)
	extended := textjoin.EstimateTotalCosts(in, sys, q,
		textjoin.CPUParams{OpsPerPageRead: 1000}, textjoin.NetParams{})
	fmt.Printf("%10s %12s %14s %14s\n", "", "io-only", "cpu-part", "total")
	for i, e := range ioOnly {
		b := extended[i]
		fmt.Printf("%10v %12.0f %14.0f %14.0f\n", e.Algorithm, e.Seq, b.CPU, b.Total())
	}
	fmt.Println("the I/O-only winner (HHNL) pays N1·N2·(K1+K2) CPU operations and loses.")
}

func printRow(label string, ests []textjoin.Estimate) {
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Seq < best.Seq {
			best = e
		}
	}
	fmt.Printf("%10s", label)
	for _, e := range ests {
		if math.IsInf(e.Seq, 1) {
			fmt.Printf(" %12s", "inf")
			continue
		}
		fmt.Printf(" %12.0f", e.Seq)
	}
	fmt.Printf("   %v\n", best.Algorithm)
}

// growth is the paper's vocabulary growth estimate f(m).
func growth(c textjoin.CollectionStats, m int64) int64 {
	t := float64(c.T)
	return int64(t - math.Pow(1-c.K/t, float64(m))*t)
}
