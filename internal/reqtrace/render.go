package reqtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// writeTree renders d's span tree as indented text, one span per line
// with its offset from the trace start, duration and attributes,
// children in start order under their parent. It is the one tree
// renderer: the -telemetry text export and the HTML trace page share it.
func writeTree(b *strings.Builder, d *TraceData) {
	children := make(map[string][]*SpanData)
	var root *SpanData
	for i := range d.Spans {
		sp := &d.Spans[i]
		if sp.Parent == "" {
			root = sp
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	if root == nil {
		b.WriteString("malformed trace: no root span\n")
		return
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNanos < kids[j].StartNanos })
	}
	var walk func(sp *SpanData, indent string)
	walk = func(sp *SpanData, indent string) {
		fmt.Fprintf(b, "%s%s %s +%s dur=%s", indent, sp.Phase, sp.Name,
			time.Duration(sp.StartNanos), time.Duration(sp.DurNanos))
		for _, a := range sp.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, k := range children[sp.ID] {
			walk(k, indent+"  ")
		}
	}
	walk(root, "")
}

// Export writes a finished trace in a -telemetry flag's mode, after the
// telemetry snapshot of the same run: "json" is the indented TraceData
// document Validate accepts, "text" a header line and the span tree.
func Export(w io.Writer, mode string, d *TraceData) error {
	switch mode {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	case "text":
		var b strings.Builder
		fmt.Fprintf(&b, "# trace %s %s dur=%s spans=%d\n", d.TraceID, d.Name, time.Duration(d.DurNanos), len(d.Spans))
		writeTree(&b, d)
		_, err := io.WriteString(w, b.String())
		return err
	}
	return fmt.Errorf("reqtrace: unknown export mode %q (want text or json)", mode)
}
