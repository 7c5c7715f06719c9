package main

// Example runs the program under tier-1 and holds its output, so the
// README row that points here cannot rot unnoticed.
func Example() {
	main()
	// Output:
	// WSJ ⋈ WSJ, varying memory B (pages):
	//          B         HHNL         HVNL          VVM   winner
	//       2500       713763    121229132     30295271   HHNL
	//       5000       396535    111018618     15147636   HHNL
	//      10000       237921     90637206      7613471   HHNL
	//      20000       158614     49899716      3806736   HHNL
	//      40000       118960       665189      1903368   HHNL
	//      60000        79307        79650      1268912   HHNL
	//      80000        79307        79650       951684   HHNL
	//
	// selection leaves m documents of WSJ as C2 (inverted file keeps full size):
	//          m         HHNL         HVNL          VVM   winner
	//          1        39658         1990        79307   HVNL
	//          5        39678         5831        79307   HVNL
	//         10        39703        10844        79307   HVNL
	//         25        39778        25161        79307   HVNL
	//         50        39903        46649        79307   HHNL
	//        100        40153        81638        79307   HHNL
	//        500        42153       408062        79307   HHNL
	//
	// extended model: DOE ⋈ DOE with a slow CPU (1000 ops per page-read time):
	//                 io-only       cpu-part          total
	//       HHNL        98251     9098529019     9098627270
	//       HVNL     41645753        1739335       43385088
	//        VVM     24562675        1739335       26302009
	// the I/O-only winner (HHNL) pays N1·N2·(K1+K2) CPU operations and loses.
}
