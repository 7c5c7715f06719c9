// Command tracecheck validates telemetry exports. Each input is a stream
// of JSON documents of two kinds, told apart by the presence of the
// reqtrace_schema key: request traces (the textjoind
// /debug/requests/{traceID} format: a reqtrace span tree with exactly
// one root and resolvable parents) and aggregate snapshots (the
// -telemetry json exporter schema: counters and histograms sorted and
// well-formed, bucket counts consistent). A command-line run with
// -telemetry json emits one of each, which is why an input is a stream.
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

	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
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

// validate checks every JSON document of the stream against the schema
// of its kind — a document carrying reqtrace_schema is a request trace,
// any other must be a snapshot — and names the kinds it found, in order.
// The first invalid document fails the input, with that one schema's
// error; so does a stream holding no document at all.
func validate(data []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var kinds []string
	for {
		var doc json.RawMessage
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			return "", fmt.Errorf("document %d: not JSON: %v", len(kinds)+1, err)
		}
		kind, check := "snapshot", telemetry.ValidateJSON
		var probe struct {
			Schema *json.RawMessage `json:"reqtrace_schema"`
		}
		if json.Unmarshal(doc, &probe) == nil && probe.Schema != nil {
			kind, check = "request trace", reqtrace.Validate
		}
		if err := check(doc); err != nil {
			return "", fmt.Errorf("document %d: %v", len(kinds)+1, err)
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		return "", errors.New("no JSON document")
	}
	return strings.Join(kinds, ", "), nil
}
