package reqtrace

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"
)

// listDoc is the JSON shape of /debug/requests?format=json.
type listDoc struct {
	Slowest []listRow `json:"slowest"`
	Recent  []listRow `json:"recent"`
}

type listRow struct {
	TraceID string  `json:"trace_id"`
	Name    string  `json:"name"`
	DurMs   float64 `json:"dur_ms"`
	Spans   int     `json:"spans"`
}

func row(d *TraceData) listRow {
	return listRow{
		TraceID: d.TraceID,
		Name:    d.Name,
		DurMs:   float64(d.DurNanos) / 1e6,
		Spans:   len(d.Spans),
	}
}

// Handler serves the flight recorder under prefix (normally
// "/debug/requests"): the listing at the prefix itself (HTML by
// default, JSON with ?format=json) and one trace's full tree at
// prefix+"/{traceID}" (HTML by default; JSON — exactly the document
// Validate accepts — with ?format=json or an Accept: application/json
// header). A nil recorder answers 503, keeping accidental nil wiring
// observable like a nil metrics exporter.
func Handler(rec *Recorder, prefix string) http.Handler {
	prefix = strings.TrimSuffix(prefix, "/")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "reqtrace: nil recorder", http.StatusServiceUnavailable)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, prefix)
		rest = strings.Trim(rest, "/")
		if rest == "" {
			serveList(w, r, rec)
			return
		}
		d := rec.Lookup(rest)
		if d == nil {
			http.Error(w, "reqtrace: no recorded trace "+rest, http.StatusNotFound)
			return
		}
		serveTrace(w, r, d)
	})
}

func wantJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func serveList(w http.ResponseWriter, r *http.Request, rec *Recorder) {
	slowest, recent := rec.Slowest(), rec.Recent()
	if wantJSON(r) {
		doc := listDoc{Slowest: []listRow{}, Recent: []listRow{}}
		for _, d := range slowest {
			doc.Slowest = append(doc.Slowest, row(d))
		}
		for _, d := range recent {
			doc.Recent = append(doc.Recent, row(d))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>textjoind request traces</title></head><body>\n")
	b.WriteString("<h1>Request flight recorder</h1>\n")
	writeTable(&b, "Slowest requests", slowest)
	writeTable(&b, "Most recent requests", recent)
	b.WriteString("</body></html>\n")
	fmt.Fprint(w, b.String())
}

func writeTable(b *strings.Builder, title string, traces []*TraceData) {
	fmt.Fprintf(b, "<h2>%s</h2>\n", html.EscapeString(title))
	if len(traces) == 0 {
		b.WriteString("<p>none recorded</p>\n")
		return
	}
	b.WriteString("<table border=\"1\" cellpadding=\"4\"><tr><th>trace</th><th>request</th><th>duration</th><th>spans</th></tr>\n")
	for _, d := range traces {
		fmt.Fprintf(b, "<tr><td><a href=\"requests/%s\">%s</a></td><td>%s</td><td>%.3f ms</td><td>%d</td></tr>\n",
			html.EscapeString(d.TraceID), html.EscapeString(d.TraceID),
			html.EscapeString(d.Name), float64(d.DurNanos)/1e6, len(d.Spans))
	}
	b.WriteString("</table>\n")
}

func serveTrace(w http.ResponseWriter, r *http.Request, d *TraceData) {
	if wantJSON(r) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>trace " + html.EscapeString(d.TraceID) + "</title></head><body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n<p>trace <code>%s</code> &middot; %.3f ms &middot; %d spans",
		html.EscapeString(d.Name), html.EscapeString(d.TraceID), float64(d.DurNanos)/1e6, len(d.Spans))
	if d.RemoteParent != "" {
		fmt.Fprintf(&b, " &middot; remote parent <code>%s</code>", html.EscapeString(d.RemoteParent))
	}
	b.WriteString("</p>\n<pre>")
	var tree strings.Builder
	writeTree(&tree, d)
	b.WriteString(html.EscapeString(tree.String()))
	b.WriteString("</pre>\n")
	fmt.Fprintf(&b, "<p><a href=\"%s?format=json\">JSON</a></p>\n", html.EscapeString(d.TraceID))
	b.WriteString("</body></html>\n")
	fmt.Fprint(w, b.String())
}
