package main

// Example runs the program under tier-1 and holds its output, so the
// README row that points here cannot rot unnoticed.
func Example() {
	main()
	// Output:
	// corpus: 192 docs, 14.2 terms/doc, 839 distinct terms
	// self join via VVM: 192 result rows, 1 passes, I/O cost 34
	// nearest-neighbor edges: 164
	// clusters: 3 multi-document clusters (largest 72 docs), 116 singletons
	// example cluster (root 99): 58 99
}
