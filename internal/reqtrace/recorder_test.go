package reqtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// record runs one synthetic trace with the given number of extra clock
// steps (so later traces are slower) and files it.
func record(tr *Tracer, rec *Recorder, name string, steps int) *TraceData {
	root := tr.StartTrace(name)
	for i := 0; i < steps; i++ {
		c := root.StartChild("scan", "work")
		c.End()
	}
	root.End()
	rec.Record(root)
	return root.Data()
}

func TestRecorderBounds(t *testing.T) {
	tr := NewTracer(3, fakeClock(time.Millisecond))
	rec := NewRecorder(4)
	var all []*TraceData
	for i := 0; i < 10; i++ {
		all = append(all, record(tr, rec, fmt.Sprintf("r%d", i), i))
	}
	recent := rec.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(recent))
	}
	// Newest first: r9, r8, r7, r6.
	for i, d := range recent {
		if want := fmt.Sprintf("r%d", 9-i); d.Name != want {
			t.Errorf("recent[%d] = %s, want %s", i, d.Name, want)
		}
	}
	slow := rec.Slowest()
	if len(slow) != 4 {
		t.Fatalf("slowest = %d, want 4", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i-1].DurNanos < slow[i].DurNanos {
			t.Fatalf("slowest not sorted: %d < %d at %d", slow[i-1].DurNanos, slow[i].DurNanos, i)
		}
	}
	// The slowest recorded trace (most steps) must be kept.
	if slow[0].TraceID != all[9].TraceID {
		t.Errorf("slowest[0] = %s, want the 9-step trace %s", slow[0].TraceID, all[9].TraceID)
	}
	// Every surviving trace is retrievable by ID; an evicted fast,
	// old trace is not.
	if rec.Lookup(slow[0].TraceID) == nil {
		t.Error("slowest trace not retrievable by ID")
	}
	if rec.Lookup(all[0].TraceID) != nil {
		t.Error("evicted trace still retrievable")
	}
	if rec.Lookup(strings.Repeat("f", 32)) != nil {
		t.Error("unknown ID retrievable")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	tr := NewTracer(3, fakeClock(time.Microsecond))
	rec := NewRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				record(tr, rec, "load", i%3)
			}
		}(g)
	}
	// Concurrent scrapes while recording.
	for i := 0; i < 20; i++ {
		for _, d := range rec.Slowest() {
			if err := ValidateData(d); err != nil {
				t.Errorf("torn slowest trace: %v", err)
			}
		}
		for _, d := range rec.Recent() {
			if err := ValidateData(d); err != nil {
				t.Errorf("torn recent trace: %v", err)
			}
		}
	}
	wg.Wait()
}

func TestHandler(t *testing.T) {
	tr := NewTracer(11, fakeClock(time.Millisecond))
	rec := NewRecorder(4)
	d := record(tr, rec, "join alg=vvm", 2)

	h := Handler(rec, "/debug/requests")
	get := func(path, accept string) (int, string, []byte) {
		req := httptest.NewRequest("GET", path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		body, _ := io.ReadAll(w.Result().Body)
		return w.Code, w.Result().Header.Get("Content-Type"), body
	}

	// HTML listing with a link to the trace.
	code, ct, body := get("/debug/requests", "")
	if code != 200 || !strings.Contains(ct, "text/html") {
		t.Fatalf("listing: code %d, type %s", code, ct)
	}
	if !strings.Contains(string(body), d.TraceID) {
		t.Fatal("listing does not mention the recorded trace")
	}

	// JSON listing.
	code, ct, body = get("/debug/requests?format=json", "")
	if code != 200 || !strings.Contains(ct, "application/json") {
		t.Fatalf("json listing: code %d, type %s", code, ct)
	}
	var doc struct {
		Slowest []struct {
			TraceID string `json:"trace_id"`
		} `json:"slowest"`
		Recent []json.RawMessage `json:"recent"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("json listing: %v", err)
	}
	if len(doc.Slowest) != 1 || doc.Slowest[0].TraceID != d.TraceID || len(doc.Recent) != 1 {
		t.Fatalf("json listing contents: %s", body)
	}

	// Detail JSON is exactly the validated wire format.
	code, _, body = get("/debug/requests/"+d.TraceID, "application/json")
	if code != 200 {
		t.Fatalf("detail: code %d", code)
	}
	if err := Validate(body); err != nil {
		t.Fatalf("detail JSON fails Validate: %v", err)
	}

	// Detail HTML renders the tree.
	code, ct, body = get("/debug/requests/"+d.TraceID, "")
	if code != 200 || !strings.Contains(ct, "text/html") {
		t.Fatalf("detail html: code %d, type %s", code, ct)
	}
	if !strings.Contains(string(body), "join alg=vvm") {
		t.Fatal("detail html lacks the request name")
	}
	if n := strings.Count(string(body), "\n  scan work +"); n != 2 {
		t.Fatalf("detail html shows %d child spans, want 2:\n%s", n, body)
	}

	// Unknown ID → 404; nil recorder → 503.
	if code, _, _ = get("/debug/requests/"+strings.Repeat("a", 32), ""); code != 404 {
		t.Fatalf("unknown trace: code %d, want 404", code)
	}
	nilH := Handler(nil, "/debug/requests")
	w := httptest.NewRecorder()
	nilH.ServeHTTP(w, httptest.NewRequest("GET", "/debug/requests", nil))
	if w.Code != 503 {
		t.Fatalf("nil recorder: code %d, want 503", w.Code)
	}
}
