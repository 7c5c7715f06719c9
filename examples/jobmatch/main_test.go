package main

// Example runs the program under tier-1 and holds its output, so the
// README row that points here cannot rot unnoticed.
func Example() {
	main()
	// Output:
	// query:
	//     Select P.P#, P.Title, A.SSN, A.Name
	//     From Positions P, Applicants A
	//     Where P.Title like "%Engineer%"
	//     and A.Resume SIMILAR_TO(2) P.Job_descr
	//
	// planner chose VVM; estimates:
	//   HHNL  seq=20.1 rand=24.1
	//   HVNL  seq=20.2 rand=20.2
	//   VVM   seq=0.1 rand=0.5
	//
	// P.P# | P.Title | A.SSN | A.Name | similarity
	// 1 | Database Engineer | 1001 | Ada | 4
	// 1 | Database Engineer | 1007 | Gil | 2
	// 2 | Search Engineer | 1003 | Cara | 5
	// 2 | Search Engineer | 1001 | Ada | 1
	// 4 | Hardware Engineer | 1004 | Dan | 4
	// 5 | Engineering Manager | 1005 | Eve | 4
	//
	// join I/O: seq=0 rand=2 writes=0 (cost 10)
}
