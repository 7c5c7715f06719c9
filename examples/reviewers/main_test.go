package main

// Example runs the program under tier-1 and holds its output, so the
// README row that points here cannot rot unnoticed.
func Example() {
	main()
	// Output:
	// reviewer assignments (tf-idf similarity, HVNL):
	//
	// "Joins between Textual Attributes"
	//   1. Prof. Stone    (score 22.06)
	//   2. Dr. Vector     (score 8.78)
	//
	// "Streaming Top-k Aggregation"
	//   1. Prof. Stream   (score 26.51)
	//
	// "Clustering Large Document Sets"
	//   1. Dr. Text       (score 21.35)
	//   2. Dr. Vector     (score 9.99)
	//
	// join I/O: seq=0 rand=3 writes=0, cache hit rate 1.00
}
