package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint strictly checks data against the Prometheus text exposition
// format as this package emits it: well-formed HELP/TYPE comments, every
// sample preceded by its family's TYPE line, legal metric and label
// names, no duplicate series, counters non-negative and "_total"-named,
// and histograms with ascending bucket bounds, non-decreasing cumulative
// counts, a "+Inf" bucket, and a _count equal to the +Inf bucket.
//
// It is the spot-check parser behind the /metrics tests (textjoind's
// serving harness runs every scrape it takes through it), the one scrape
// of textjoind -smoke and cmd/tracecheck; a scrape that passes Lint is
// ingestible by a Prometheus scraper.
func Lint(data []byte) error {
	l := &linter{
		types:  make(map[string]string),
		helps:  make(map[string]bool),
		seen:   make(map[string]bool),
		hists:  make(map[string]*histCheck),
		horder: nil,
	}
	for i, line := range strings.Split(string(data), "\n") {
		if err := l.line(line); err != nil {
			return fmt.Errorf("metrics: line %d: %w", i+1, err)
		}
	}
	return l.finish()
}

// histCheck accumulates one histogram series (family + labels minus le)
// across its _bucket/_sum/_count lines.
type histCheck struct {
	where    string
	les      []float64
	cums     []float64
	sum      float64
	count    float64
	hasSum   bool
	hasCount bool
}

type linter struct {
	types  map[string]string
	helps  map[string]bool
	seen   map[string]bool
	hists  map[string]*histCheck
	horder []string
}

func (l *linter) line(line string) error {
	if strings.TrimSpace(line) == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return l.comment(line)
	}
	return l.sample(line)
}

func (l *linter) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch fields[1] {
	case "HELP":
		name := fields[2]
		if !validName(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		if l.helps[name] {
			return fmt.Errorf("duplicate HELP for %q", name)
		}
		l.helps[name] = true
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := l.types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		l.types[name] = typ
	default:
		// Plain comments are legal and ignored.
	}
	return nil
}

func (l *linter) sample(line string) error {
	name, labels, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	vs := strings.Fields(rest)
	if len(vs) != 1 {
		return fmt.Errorf("want exactly one value (no timestamps) after %q, got %q", name, rest)
	}
	v, err := strconv.ParseFloat(vs[0], 64)
	if err != nil {
		return fmt.Errorf("bad sample value %q: %v", vs[0], err)
	}

	family := name
	suffix := ""
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, sfx)
		if base != name && l.types[base] == "histogram" {
			family, suffix = base, sfx
			break
		}
	}
	typ, ok := l.types[family]
	if !ok {
		return fmt.Errorf("sample %q precedes its TYPE line", name)
	}

	key := name + "{" + canonicalLabels(labels) + "}"
	if l.seen[key] {
		return fmt.Errorf("duplicate series %s", key)
	}
	l.seen[key] = true

	switch typ {
	case "counter":
		if v < 0 {
			return fmt.Errorf("counter %s has negative value %g", name, v)
		}
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter %s does not end in _total", name)
		}
	case "histogram":
		return l.histSample(family, suffix, labels, v)
	}
	return nil
}

func (l *linter) histSample(family, suffix string, labels map[string]string, v float64) error {
	le, hasLe := labels["le"]
	delete(labels, "le")
	hkey := family + "{" + canonicalLabels(labels) + "}"
	h, ok := l.hists[hkey]
	if !ok {
		h = &histCheck{where: hkey}
		l.hists[hkey] = h
		l.horder = append(l.horder, hkey)
	}
	switch suffix {
	case "_bucket":
		if !hasLe {
			return fmt.Errorf("histogram bucket %s lacks le label", hkey)
		}
		bound, err := parseLe(le)
		if err != nil {
			return fmt.Errorf("histogram %s: %v", hkey, err)
		}
		h.les = append(h.les, bound)
		h.cums = append(h.cums, v)
	case "_sum":
		h.sum, h.hasSum = v, true
	case "_count":
		h.count, h.hasCount = v, true
	default:
		return fmt.Errorf("histogram %s has a plain sample line", hkey)
	}
	return nil
}

// finish runs the whole-series histogram checks.
func (l *linter) finish() error {
	for _, hkey := range l.horder {
		h := l.hists[hkey]
		if len(h.les) == 0 {
			return fmt.Errorf("metrics: histogram %s has no buckets", hkey)
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				return fmt.Errorf("metrics: histogram %s bucket bounds not ascending", hkey)
			}
			if h.cums[i] < h.cums[i-1] {
				return fmt.Errorf("metrics: histogram %s cumulative counts decrease", hkey)
			}
		}
		last := len(h.les) - 1
		if !math.IsInf(h.les[last], 1) {
			return fmt.Errorf("metrics: histogram %s lacks the +Inf bucket", hkey)
		}
		if !h.hasSum || !h.hasCount {
			return fmt.Errorf("metrics: histogram %s lacks _sum or _count", hkey)
		}
		if h.count != h.cums[last] {
			return fmt.Errorf("metrics: histogram %s count %g != +Inf bucket %g", hkey, h.count, h.cums[last])
		}
	}
	return nil
}

// splitSample splits a sample line into name, parsed labels and the
// remainder holding the value.
func splitSample(line string) (string, map[string]string, string, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, "", fmt.Errorf("malformed sample line %q", line)
	}
	name := line[:nameEnd]
	if !validName(name) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	labels := make(map[string]string)
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], labels); err != nil {
			return "", nil, "", err
		}
		rest = rest[end+1:]
	}
	return name, labels, rest, nil
}

// parseLabels parses `k="v",k2="v2"` into dst.
func parseLabels(s string, dst map[string]string) error {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed label in %q", s)
		}
		key := s[:eq]
		if !validLabelName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		if _, dup := dst[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted label value for %q", key)
		}
		val := strings.Builder{}
		i := 1
		closed := false
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return fmt.Errorf("dangling escape in label %q", key)
				}
				i++
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %q", s[i], key)
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		dst[key] = val.String()
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("expected ',' between labels, got %q", s)
			}
			s = s[1:]
		}
	}
	return nil
}

// canonicalLabels renders labels sorted by key for series identity.
func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le bound %q", s)
	}
	return v, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
