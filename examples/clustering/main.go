// Clustering exercises the self-join special case the paper points out:
// "The clustering problem in IR systems requires to find, for each
// document d, those documents similar to d in the same document
// collection. This can be considered as a special case of the join
// problem when the two document collections ... are identical."
//
// The example generates a synthetic corpus, self-joins it with VVM (one
// merge scan of the inverted file against itself), and derives
// single-link-style clusters from the λ-nearest-neighbor graph.
package main

import (
	"fmt"
	"log"

	"textjoin"
)

func main() {
	ws := textjoin.NewWorkspace()

	// A scaled-down WSJ profile: enough terms per document for a
	// meaningful nearest-neighbor graph.
	profile := textjoin.Profiles()[0].Scaled(512)
	c, err := ws.GenerateCorpus(profile, 42)
	if err != nil {
		log.Fatal(err)
	}
	inv, err := ws.BuildInvertedFile(c)
	if err != nil {
		log.Fatal(err)
	}
	ws.ResetIOStats()

	st := c.Stats()
	fmt.Printf("corpus: %d docs, %.1f terms/doc, %d distinct terms\n", st.N, st.K, st.T)

	// Self join: both sides are the same collection and inverted file.
	results, stats, err := textjoin.Join(textjoin.VVM,
		textjoin.Inputs{Outer: c, Inner: c, InnerInv: inv, OuterInv: inv},
		textjoin.Options{Lambda: 4, MemoryPages: 2000},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self join via VVM: %d result rows, %d passes, I/O cost %.0f\n",
		len(results), stats.Passes, stats.Cost)

	// Union-find over mutual nearest-neighbor edges (excluding the
	// trivial self edge) yields clusters.
	parent := make([]int, st.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Only strong edges cluster: a similarity threshold keeps weak
	// single-shared-term links from collapsing everything into one blob.
	const minSim = 30
	edges := 0
	for _, r := range results {
		for _, m := range r.Matches {
			if m.Doc == r.Outer || m.Sim < minSim {
				continue // self similarity or too-weak link
			}
			union(int(r.Outer), int(m.Doc))
			edges++
		}
	}

	sizes := map[int]int{}
	for i := range parent {
		sizes[find(i)]++
	}
	singletons, clusters, largest := 0, 0, 0
	for _, n := range sizes {
		if n == 1 {
			singletons++
			continue
		}
		clusters++
		if n > largest {
			largest = n
		}
	}
	fmt.Printf("nearest-neighbor edges: %d\n", edges)
	fmt.Printf("clusters: %d multi-document clusters (largest %d docs), %d singletons\n",
		clusters, largest, singletons)

	// Show one non-trivial cluster's members: the lowest-numbered root,
	// whatever order the map would have been walked in.
	for root := range parent {
		if n := sizes[root]; n > 1 && n <= 8 {
			fmt.Printf("example cluster (root %d):", root)
			for i := range parent {
				if find(i) == root {
					fmt.Printf(" %d", i)
				}
			}
			fmt.Println()
			break
		}
	}
}
