// Package metrics exports telemetry snapshots in the Prometheus text
// exposition format (version 0.0.4), with zero dependencies beyond the
// standard library.
//
// The paper's analysis lives and dies by counters — page reads split
// sequential/random, cache hits, pass counts — and a program's
// internal/telemetry collector holds all of them, added once per finished
// request. This package gives those counters a stable wire shape so a
// long-running join service can be watched by any Prometheus-compatible
// scraper:
//
//   - every metric is namespaced "textjoin_",
//   - structured telemetry names become families with labels
//     (io.file.c1.inv.seq → textjoin_iosim_file_seq_reads_total{file="c1.inv"}),
//   - join counters keep the algorithm in the family name, per the
//     naming scheme textjoin_join_<alg>_* (DESIGN.md §10),
//   - telemetry histograms become Prometheus histograms with cumulative
//     buckets.
//
// The mapping is pure renaming: no counter is merged, split or rescaled,
// so a Prometheus query over textjoin_join_vvm_io_seq_total sees exactly
// the numbers the paper's Stats struct reports.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"textjoin/internal/telemetry"
)

// Namespace prefixes every exported metric name.
const Namespace = "textjoin"

// ContentType is the HTTP content type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelPair is one metric label. Pairs are kept sorted by key; the
// histogram "le" label is appended last by the encoder, as the format
// requires for bucket series.
type labelPair struct{ key, value string }

// series is one sample line of a counter or gauge family.
type series struct {
	labels []labelPair
	value  float64
	// isInt selects integer formatting (counters), keeping the output
	// byte-stable across platforms.
	isInt bool
	ival  int64
}

// histSeries is one labelled histogram within a histogram family.
type histSeries struct {
	labels  []labelPair
	buckets []telemetry.Bucket // per-bucket counts, as in the snapshot
	sum     int64
	count   int64
}

// family is one named metric family of a single type.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge" or "histogram"
	ser  []series
	hist []histSeries
}

// mapCounter translates a telemetry counter name into a metric family
// name plus labels. The rules mirror the names textjoin.RecordJoin and
// the serving layer add (DESIGN.md §10 documents the scheme):
//
//	io.file.<file>.seq|rand|writes → textjoin_iosim_file_{seq,rand}_reads_total /
//	                                 textjoin_iosim_file_writes_total {file}
//	cache.<policy>.<event>         → textjoin_entrycache_<event>_total {policy}
//	join.<alg>.prefilter.<stat>    → textjoin_prefilter_<stat>_total   {alg}
//	join.<alg>.<stat>              → textjoin_join_<alg>_<stat>_total
//	plan.chosen.<alg>              → textjoin_plan_chosen_total        {alg}
//	query.<stat>                   → textjoin_query_<stat>_total
//	http.<stat>                    → textjoin_http_<stat>_total, or the
//	                                 suffix-less gauge family for levels
//	                                 (see gaugeFamilies)
//	anything else                  → textjoin_<sanitized>_total
func mapCounter(name string) (string, []labelPair) {
	switch {
	case strings.HasPrefix(name, "io.file."):
		rest := strings.TrimPrefix(name, "io.file.")
		if i := strings.LastIndex(rest, "."); i > 0 {
			file, kind := rest[:i], rest[i+1:]
			switch kind {
			case "seq", "rand":
				return Namespace + "_iosim_file_" + kind + "_reads_total",
					[]labelPair{{"file", file}}
			case "writes":
				return Namespace + "_iosim_file_writes_total",
					[]labelPair{{"file", file}}
			}
		}
	case strings.HasPrefix(name, "cache."):
		rest := strings.TrimPrefix(name, "cache.")
		if i := strings.LastIndex(rest, "."); i > 0 {
			policy, event := rest[:i], rest[i+1:]
			return Namespace + "_entrycache_" + sanitize(event) + "_total",
				[]labelPair{{"policy", policy}}
		}
	case strings.HasPrefix(name, "join."):
		parts := strings.Split(name, ".")
		if len(parts) >= 3 {
			alg := sanitize(parts[1])
			if parts[2] == "prefilter" && len(parts) == 4 {
				return Namespace + "_prefilter_" + sanitize(parts[3]) + "_total",
					[]labelPair{{"alg", parts[1]}}
			}
			stat := sanitize(strings.Join(parts[2:], "_"))
			return Namespace + "_join_" + alg + "_" + stat + "_total", nil
		}
	case strings.HasPrefix(name, "plan.chosen."):
		return Namespace + "_plan_chosen_total",
			[]labelPair{{"alg", strings.TrimPrefix(name, "plan.chosen.")}}
	case strings.HasPrefix(name, "query."):
		return Namespace + "_query_" + sanitize(strings.TrimPrefix(name, "query.")) + "_total", nil
	case strings.HasPrefix(name, "http."):
		stat := sanitize(strings.TrimPrefix(name, "http."))
		if g := Namespace + "_http_" + stat; gaugeFamilies[g] {
			return g, nil
		}
		return Namespace + "_http_" + stat + "_total", nil
	}
	return Namespace + "_" + sanitize(name) + "_total", nil
}

// gaugeFamilies are families fed by telemetry counters that the serving
// layer moves both up and down (Add(±1) around a state change): their
// exported value is a level, not a monotone total, so they are typed
// gauge and carry no _total suffix.
var gaugeFamilies = map[string]bool{
	Namespace + "_http_inflight":    true,
	Namespace + "_http_queue_depth": true,
}

// mapHistogram translates a telemetry histogram name into a family name
// plus labels:
//
//	phase.<phase>.ns               → textjoin_phase_ns {phase}
//	http.request.<endpoint>.ns     → textjoin_http_request_ns {endpoint}
//	plan.error.log2                → textjoin_plan_error_log2
//	anything else                  → textjoin_<sanitized>
func mapHistogram(name string) (string, []labelPair) {
	parts := strings.Split(name, ".")
	switch {
	case len(parts) == 3 && parts[0] == "phase" && parts[2] == "ns":
		return Namespace + "_phase_ns", []labelPair{{"phase", parts[1]}}
	case len(parts) == 4 && parts[0] == "http" && parts[1] == "request" && parts[3] == "ns":
		return Namespace + "_http_request_ns", []labelPair{{"endpoint", sanitize(parts[2])}}
	case name == "plan.error.log2":
		return Namespace + "_plan_error_log2", nil
	}
	return Namespace + "_" + sanitize(name), nil
}

// helpFor returns the HELP text of a family. Known families get specific
// text; mapped fallbacks a generic one.
func helpFor(name string) string {
	switch {
	case strings.HasPrefix(name, Namespace+"_iosim_file_seq"):
		return "Sequential page reads per simulated file."
	case strings.HasPrefix(name, Namespace+"_iosim_file_rand"):
		return "Random page reads per simulated file."
	case strings.HasPrefix(name, Namespace+"_iosim_file_writes"):
		return "Page writes per simulated file."
	case strings.HasPrefix(name, Namespace+"_entrycache_"):
		return "Entry cache events by replacement policy."
	case name == Namespace+"_plan_chosen_total":
		return "Integrated-algorithm choices by algorithm."
	case strings.HasPrefix(name, Namespace+"_prefilter_"):
		return "Signature prefilter pruning outcomes by join algorithm."
	case name == Namespace+"_phase_ns":
		return "Span durations per execution phase in nanoseconds."
	case name == Namespace+"_http_inflight":
		return "Join requests currently admitted and executing."
	case name == Namespace+"_http_queue_depth":
		return "Join requests parked in the admission queue."
	case name == Namespace+"_http_rejected_total":
		return "Join requests rejected by admission control (queue full or wait deadline)."
	case name == Namespace+"_http_request_ns":
		return "HTTP request latency per endpoint in nanoseconds."
	case name == Namespace+"_plan_error_log2":
		return "Planner cost error per integrated join: milli-log2 of measured over estimated cost."
	case strings.HasPrefix(name, Namespace+"_slo_"):
		return "Service-level objective gauge computed over the rolling SLO window."
	case strings.HasPrefix(name, Namespace+"_join_"):
		return "Join execution counter (see DESIGN.md §10 naming scheme)."
	case strings.HasPrefix(name, Namespace+"_query_"):
		return "Extended-SQL query layer counter."
	case name == Namespace+"_scrapes_total":
		return "Metrics scrapes served by this exporter."
	}
	return "Telemetry metric exported by textjoin."
}

// sanitize rewrites s into a legal metric-name fragment:
// [a-zA-Z0-9_], never starting with a digit.
func sanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// familySet accumulates series into families keyed by name.
type familySet struct {
	byName map[string]*family
}

func newFamilySet() *familySet { return &familySet{byName: make(map[string]*family)} }

func (fs *familySet) get(name, typ string) *family {
	f, ok := fs.byName[name]
	if !ok {
		f = &family{name: name, help: helpFor(name), typ: typ}
		fs.byName[name] = f
	}
	return f
}

func (fs *familySet) addInt(name, typ string, labels []labelPair, v int64) {
	f := fs.get(name, typ)
	f.ser = append(f.ser, series{labels: labels, isInt: true, ival: v})
}

// addSnapshot folds a snapshot's counters and histograms into the set.
func (fs *familySet) addSnapshot(s *telemetry.Snapshot) {
	for _, c := range s.Counters {
		name, labels := mapCounter(c.Name)
		typ := "counter"
		if gaugeFamilies[name] {
			typ = "gauge"
		}
		fs.addInt(name, typ, labels, c.Value)
	}
	for _, h := range s.Histograms {
		name, labels := mapHistogram(h.Name)
		f := fs.get(name, "histogram")
		f.hist = append(f.hist, histSeries{labels: labels, buckets: h.Buckets, sum: h.Sum, count: h.Count})
	}
}

// labelString renders a label set (plus an optional le pair) for a
// sample line.
func labelString(labels []labelPair, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.key + `="` + escapeLabel(l.value) + `"`)
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="` + le + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// leString formats a bucket bound; the overflow bucket renders "+Inf".
func leString(le int64) string {
	if le == int64(^uint64(0)>>1) {
		return "+Inf"
	}
	return strconv.FormatInt(le, 10)
}

// write renders the set in name order.
func (fs *familySet) write(w io.Writer) error {
	names := make([]string, 0, len(fs.byName))
	for n := range fs.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	ew := &errWriter{w: w}
	for _, n := range names {
		f := fs.byName[n]
		sort.Slice(f.ser, func(i, j int) bool {
			return labelString(f.ser[i].labels, "") < labelString(f.ser[j].labels, "")
		})
		sort.Slice(f.hist, func(i, j int) bool {
			return labelString(f.hist[i].labels, "") < labelString(f.hist[j].labels, "")
		})
		ew.printf("# HELP %s %s\n", f.name, f.help)
		ew.printf("# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.ser {
			if s.isInt {
				ew.printf("%s%s %d\n", f.name, labelString(s.labels, ""), s.ival)
			} else {
				ew.printf("%s%s %s\n", f.name, labelString(s.labels, ""), formatFloat(s.value))
			}
		}
		for _, h := range f.hist {
			cum := int64(0)
			for _, b := range h.buckets {
				cum += b.Count
				ew.printf("%s_bucket%s %d\n", f.name, labelString(h.labels, leString(b.Le)), cum)
			}
			ew.printf("%s_sum%s %d\n", f.name, labelString(h.labels, ""), h.sum)
			ew.printf("%s_count%s %d\n", f.name, labelString(h.labels, ""), h.count)
		}
	}
	return ew.err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// errWriter folds the repeated error checks of sequential Fprintf calls.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
