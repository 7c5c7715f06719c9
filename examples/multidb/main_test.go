package main

// Example runs the program under tier-1 and holds its output, so the
// README row that points here cannot rot unnoticed.
func Example() {
	main()
	// Output:
	// standard dictionary: 6 terms; mapping A 36 bytes, mapping B 36 bytes in memory
	//
	// best candidate per position (joined across autonomous systems):
	//   Database Engineer  -> Ada (similarity 6)
	//   Compiler Engineer  -> Hal (similarity 5)
	//   Payroll Admin      -> Pam (similarity 6)
}
