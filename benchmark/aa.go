package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// selfCheck runs two sets of n end-to-end runs of this build, a fresh
// process per run and seed+i for run i of both sets, and applies the
// rule a change is later held to: a metric passes when the second set's
// median is no worse than the first's by more than the metric's bound
// and, except for setup_s, each set's quartile spread stays within the
// bound. Anything else is unresolved: the benchmark cannot tell a
// regression of that size from its own noise.
func selfCheck(todo []spec, n int, seed int64, seconds float64) error {
	c, err := readContract()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] holds one number per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, s := range todo {
				cmd := exec.Command(self, "-root", repoRoot, "-workload", s.name,
					"-seed", strconv.FormatInt(seed+int64(i), 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d run %d of %s: %w", set+1, i+1, s.name, err)
				}
				var res result
				if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
					return fmt.Errorf("set %d run %d of %s: %w", set+1, i+1, s.name, err)
				}
				if values[set][s.name] == nil {
					values[set][s.name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					values[set][s.name][name] = append(values[set][s.name][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d/%d %s done\n", set+1, i+1, n, s.name)
			}
		}
	}
	fmt.Printf("%-11s %-16s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
	unresolved := 0
	for _, s := range todo {
		for _, m := range c.EndToEnd {
			a, b := values[0][s.name][m.Name], values[1][s.name][m.Name]
			ma, mb := median(a), median(b)
			// worse is how far B is on the bad side of A, as a share of A.
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "PASS"
			if worse > m.Bound || m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%-11s %-16s %14.6g %14.6g %+8.4f %8.4f %8.4f %6.3f  %s\n",
				s.name, m.Name, ma, mb, worse, sa, sb, m.Bound, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metrics unresolved", unresolved)
	}
	return nil
}

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readContract() (contract, error) {
	var c contract
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// lastLine is the last non-empty line of a run's standard output.
func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}
