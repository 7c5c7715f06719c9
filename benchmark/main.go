// Command benchmark is textjoin's wall-clock benchmark: four closed-loop
// workloads that each stress different layers, a reference check on
// every result, seven end-to-end metrics per workload, and a traced mode
// that prices each layer. README.md in this directory explains the
// workloads and how the layer metrics relate to the end-to-end ones.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                                  # all workloads, end to end
//	bash benchmark/run.sh -workload vvm_merge -trace 1     # per-layer metrics and a spans file
//	bash benchmark/run.sh -aa 5                            # does the benchmark agree with itself?
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is not 0 when an
// operation failed or a result differed from its reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// repoRoot is the checkout the benchmark measures, set once by main.
var repoRoot string

func main() {
	workload := flag.String("workload", "", "workload to run: hhnl_scan, hvnl_probe, vvm_merge or serve_mix (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated corpora and the operation order")
	seconds := flag.Float64("seconds", 20, "nominal length of the timed phase; it fixes the operation count")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
	spans := flag.String("spans", "", "directory the traced run writes <workload>.spans.json to (default <root>/.bench_build/spans)")
	aa := flag.Int("aa", 0, "run two sets of N end-to-end runs of this build and report whether they agree within the bounds")
	root := flag.String("root", "", "repository root (default: the nearest directory at or above the current one that holds BENCHMARK.json)")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *spans, *aa, *root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, spans string, aa int, root string) error {
	var err error
	if repoRoot, err = findRoot(root); err != nil {
		return err
	}
	if spans == "" {
		spans = filepath.Join(buildDir(), "spans")
	}
	todo := specs()
	if workload != "" {
		s, err := specByName(workload)
		if err != nil {
			return err
		}
		todo = []spec{s}
	}
	if aa > 0 {
		return selfCheck(todo, aa, seed, seconds)
	}
	var failed error
	for _, s := range todo {
		if s.prepare != nil {
			if err := s.prepare(); err != nil {
				return err
			}
		}
		var out *outcome
		if trace != 0 {
			out, err = perLayer(s, seed, roundsFor(s, seconds), spans)
		} else {
			out, err = endToEnd(s, seed, roundsFor(s, seconds), s.setupRuns)
		}
		if err != nil {
			return err
		}
		if err := out.print(seed); err != nil {
			return err
		}
		if out.failed > 0 && failed == nil {
			failed = fmt.Errorf("%s: %d of %d operations failed; first: %w", s.name, out.failed, out.attempted, out.firstFailure)
		}
	}
	return failed
}

func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the current directory; pass -root")
		}
		dir = parent
	}
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metrics as a table and then as the JSON line.
func (o *outcome) print(seed int64) error {
	fmt.Printf("# %s  seed=%d  ops=%d failed=%d  %s nproc=%d GOMAXPROCS=%d\n",
		o.workload, seed, o.attempted, o.failed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if o.rounds > 0 {
		fmt.Printf("# timings are the quiet tenth of %d rounds of %d operations\n", o.rounds, o.attempted/o.rounds)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]resultValue{}}
	for _, m := range o.metrics {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
