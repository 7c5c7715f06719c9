// Command tracecheck validates what the observability layer exports.
// An input is an optional Prometheus text exposition (what /metrics
// serves), checked with metrics.Lint, followed by any number of JSON
// request traces (the textjoind /debug/requests/{traceID} format: a
// reqtrace span tree with exactly one root and resolvable parents),
// each checked with reqtrace.Validate. The first line that opens a JSON
// object ends the exposition. A command-line run with -telemetry json
// writes the exposition and then its trace, which is why an input is a
// stream.
//
// With no arguments it reads stdin, so it can terminate a pipeline like
//
//	textjoin ... -telemetry json 2>&1 1>/dev/null | tracecheck
//
// With file arguments it validates each file, prints a per-file verdict,
// and exits non-zero if any file is invalid — it does not stop at the
// first bad file. -q suppresses the per-file "ok" lines (errors always
// print).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
)

func main() {
	quiet := flag.Bool("q", false, "print only errors, not per-file ok lines")
	flag.Parse()
	os.Exit(run(flag.Args(), os.Stdin, os.Stdout, os.Stderr, *quiet))
}

// run validates each named input (or stdin when none), reporting every
// failure; the exit code is the number of invalid inputs capped at 1.
func run(paths []string, stdin io.Reader, stdout, stderr io.Writer, quiet bool) int {
	type input struct {
		name string
		data []byte
		err  error
	}
	var inputs []input
	if len(paths) == 0 {
		data, err := io.ReadAll(stdin)
		inputs = append(inputs, input{"<stdin>", data, err})
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		inputs = append(inputs, input{p, data, err})
	}

	bad := 0
	for _, in := range inputs {
		if in.err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", in.name, in.err)
			bad++
			continue
		}
		format, err := validate(in.data)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", in.name, err)
			bad++
			continue
		}
		if !quiet {
			fmt.Fprintf(stdout, "tracecheck: %s: %s ok\n", in.name, format)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "tracecheck: %d of %d input(s) invalid\n", bad, len(inputs))
		return 1
	}
	return 0
}

// validate checks the leading exposition, if any, and then every JSON
// document after it, and names what it found, in order. The first
// invalid part fails the input; so does an input holding neither an
// exposition nor a document.
func validate(data []byte) (string, error) {
	var kinds []string
	expo, docs := splitExposition(data)
	if len(bytes.TrimSpace(expo)) > 0 {
		if err := metrics.Lint(expo); err != nil {
			return "", fmt.Errorf("exposition: %v", err)
		}
		kinds = append(kinds, "exposition")
	}
	dec := json.NewDecoder(bytes.NewReader(docs))
	for n := 1; ; n++ {
		var doc json.RawMessage
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			return "", fmt.Errorf("document %d: not JSON: %v", n, err)
		}
		if err := reqtrace.Validate(doc); err != nil {
			return "", fmt.Errorf("document %d: %v", n, err)
		}
		kinds = append(kinds, "request trace")
	}
	if len(kinds) == 0 {
		return "", errors.New("empty input: no exposition and no JSON document")
	}
	return strings.Join(kinds, ", "), nil
}

// splitExposition cuts data before its first line that opens a JSON
// object. No exposition line starts with "{": it is a comment or begins
// with a metric name.
func splitExposition(data []byte) (expo, docs []byte) {
	off := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("{")) {
			return data[:off], data[off:]
		}
		off += len(line)
	}
	return data, nil
}
