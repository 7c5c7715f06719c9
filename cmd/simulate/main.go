// Command simulate regenerates the paper's Section 6 simulation study.
//
// Usage:
//
//	simulate [-group all|table1|1|2|3|4|5|lambda|delta|extended|findings|integrated]
//
// Every group evaluates the cost formulas at full TREC scale, which is
// exactly what the paper's simulation did; no join runs. The measured
// counterpart — the real algorithms' page reads next to the model — is
// `go run ./cmd/benchreport -calreport <file>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"textjoin/internal/corpus"
	"textjoin/internal/costmodel"
	"textjoin/internal/simulate"
)

func main() {
	group := flag.String("group", "all", "which experiment group to run: all, table1, 1, 2, 3, 4, 5, lambda, delta, extended, findings, integrated")
	flag.Parse()

	if err := run(*group); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(group string) error {
	printTables := func(tables []*simulate.Table) {
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
	switch group {
	case "all":
		printTables(simulate.RunAll())
		fmt.Println(simulate.FormatFindings(simulate.Findings()))
		return nil
	case "table1":
		printTables([]*simulate.Table{simulate.Table1()})
	case "1":
		printTables(simulate.Group1())
	case "2":
		printTables(simulate.Group2())
	case "3":
		printTables(simulate.Group3())
	case "4":
		printTables(simulate.Group4())
	case "5":
		printTables(simulate.Group5())
	case "lambda":
		printTables(simulate.GroupLambda())
	case "delta":
		printTables(simulate.GroupDelta())
	case "extended":
		printExtended()
	case "findings":
		fmt.Println(simulate.FormatFindings(simulate.Findings()))
	case "integrated":
		// The integrated choices are the last column of every table;
		// print a compact choice matrix over the whole grid.
		fmt.Println("== integrated algorithm choices across the grid ==")
		for _, t := range simulate.RunAll() {
			if t.ID == "table1" {
				continue
			}
			var choices []string
			for _, r := range t.Rows {
				choices = append(choices, fmt.Sprintf("%s:%s", r.Label, r.Chosen))
			}
			fmt.Printf("%-18s %s\n", t.ID, strings.Join(choices, "  "))
		}
	default:
		return fmt.Errorf("unknown group %q", group)
	}
	return nil
}

// printExtended shows the CPU+communication model (the paper's
// further-studies item 2) for each self join under two configurations: a
// slow CPU and an expensive link to a remote C1.
func printExtended() {
	sys := costmodel.DefaultSystem()
	q := costmodel.DefaultQuery()
	configs := []struct {
		name string
		cpu  costmodel.CPUParams
		net  costmodel.NetParams
	}{
		{"io-only (paper)", costmodel.CPUParams{}, costmodel.NetParams{}},
		{"slow-cpu (1000 ops/page)", costmodel.CPUParams{OpsPerPageRead: 1000}, costmodel.NetParams{}},
		{"remote-C1 (2 units/page)", costmodel.CPUParams{}, costmodel.NetParams{CostPerPage: 2, C1Remote: true}},
	}
	for _, p := range corpus.Profiles() {
		in := costmodel.Input{C1: p.Stats(), C2: p.Stats()}
		fmt.Printf("== extended: self join %s ⋈ %s ==\n", p.Name, p.Name)
		fmt.Printf("%-26s %6s %14s %14s %14s   %s\n", "config", "alg", "io", "cpu", "comm", "total")
		for _, cfg := range configs {
			chosen, bds := costmodel.ChooseTotal(in, sys, q, cfg.cpu, cfg.net)
			for _, b := range bds {
				marker := " "
				if b.Algorithm == chosen {
					marker = "*"
				}
				fmt.Printf("%-26s %5v%s %14.0f %14.0f %14.0f   %.0f\n",
					cfg.name, b.Algorithm, marker, b.IO, b.CPU, b.Comm, b.Total())
			}
		}
		fmt.Println()
	}
}
