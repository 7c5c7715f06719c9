package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"textjoin"
	"textjoin/internal/reqtrace"
)

// joinReply is the decode schema of a whole /join reply: the header the
// server marshals, then the rows it streams after it.
type joinReply struct {
	joinResponse
	Results []joinResult `json:"results,omitempty"`
}

type joinResult struct {
	Outer   uint32      `json:"outer"`
	Matches []joinMatch `json:"matches"`
}

type joinMatch struct {
	Doc uint32  `json:"doc"`
	Sim float64 `json:"sim"`
}

// referenceReply is the reply encoding/json makes of header and the first
// show rows of results, the rows copied into []joinResult as the server
// once did before marshalling the whole document; newline-terminated like
// every reply.
func referenceReply(t *testing.T, header joinResponse, results []textjoin.Result, show int) []byte {
	t.Helper()
	ref := joinReply{joinResponse: header}
	for i, res := range results {
		if i >= show {
			break
		}
		jr := joinResult{Outer: res.Outer, Matches: []joinMatch{}}
		for _, m := range res.Matches {
			jr.Matches = append(jr.Matches, joinMatch{Doc: m.Doc, Sim: m.Sim})
		}
		ref.Results = append(ref.Results, jr)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// sameBytes fails t unless got equals want, quoting both around the first
// difference.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Errorf("%s: differs from encoding/json at byte %d of %d (want %d):\n got …%s…\nwant …%s…",
		what, i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestJoinReplyMatchesEncodingJSON: for every serve_mix kind and for no
// rows, two rows and more rows than the join returned, the streamed reply
// is byte for byte encoding/json's document of the same header and the
// same results. The results are the join's own: the rows of the full
// reply hash to the result digest the request's trace recorded.
func TestJoinReplyMatchesEncodingJSON(t *testing.T) {
	s, _ := testServer(t, 2048)
	serve := func(query string) ([]byte, joinReply, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/join?"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body)
		}
		var j joinReply
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		d := s.recorder.Lookup(j.TraceID)
		if d == nil {
			t.Fatalf("%s: trace %s not recorded", query, j.TraceID)
		}
		for _, a := range d.Spans[len(d.Spans)-1].Attrs {
			if a.Key == "result.hash" {
				return rec.Body.Bytes(), j, a.Value
			}
		}
		t.Fatalf("%s: no result.hash on the root span", query)
		return nil, j, ""
	}

	for _, k := range serveMixKinds {
		_, full, hash := serve(k.query + "&lambda=20&show=100000")
		results := make([]textjoin.Result, len(full.Results))
		for i, r := range full.Results {
			results[i].Outer = r.Outer
			for _, m := range r.Matches {
				results[i].Matches = append(results[i].Matches, textjoin.Match{Doc: m.Doc, Sim: m.Sim})
			}
		}
		if d := textjoin.ResultDigest(results); d != hash {
			t.Fatalf("%s: the reply's rows digest to %s, the join's results to %s", k.name, d, hash)
		}
		if len(results) <= 2 {
			t.Fatalf("%s: %d rows; the test needs more than two", k.name, len(results))
		}
		for _, show := range []int{0, 2, len(results) + 1} {
			body, j, h := serve(fmt.Sprintf("%s&lambda=20&show=%d", k.query, show))
			if h != hash {
				t.Fatalf("%s show=%d: result digest %s, want %s", k.name, show, h, hash)
			}
			sameBytes(t, fmt.Sprintf("%s show=%d", k.name, show), body, referenceReply(t, j.joinResponse, results, show))
		}
	}

	// Rows no join here returns: a row without matches, and similarities
	// at the edges of encoding/json's two float formats.
	results := []textjoin.Result{
		{Outer: 0},
		{Outer: 1, Matches: []textjoin.Match{{Doc: 7, Sim: 1e-7}, {Doc: math.MaxUint32, Sim: 1e21}, {Doc: 0, Sim: 0}}},
		{Outer: math.MaxUint32, Matches: []textjoin.Match{{Doc: 3, Sim: 9.99e-7}, {Doc: 4, Sim: 1e20}}},
		{Outer: 3, Matches: []textjoin.Match{}},
	}
	header := joinResponse{TraceID: "00f067aa0ba902b74bf92f3577b34da6", Algorithm: "HVNL", Lambda: 3, Cost: 12.5,
		Prefilter: &textjoin.PrefilterStats{PagesSkipped: 2}}
	for _, show := range []int{-1, 0, 2, len(results) + 1} {
		rec := httptest.NewRecorder()
		if err := writeJoinReply(rec, &header, results, show, nil); err != nil {
			t.Fatal(err)
		}
		sameBytes(t, fmt.Sprintf("synthetic rows, show=%d", show), rec.Body.Bytes(), referenceReply(t, header, results, show))
	}
}

// checkJSONFloat fails t unless appendJSONFloat writes f as
// json.Marshal does.
func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	if got := appendJSONFloat([]byte("x"), f); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("appendJSONFloat(%#016x) = %s, encoding/json writes %s", math.Float64bits(f), got, want)
	}
}

// integralFloats are the edges of appendJSONFloat's integer path: 2⁵³ − 1
// takes it; 2⁵³, the next float above it, 1e20 and 1e21 do not. Each is
// signed both ways.
var integralFloats = []float64{
	1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2), 1e20, -1e20, 1e21, -1e21,
}

// TestAppendJSONFloatMatchesEncodingJSON covers both of encoding/json's
// float formats at and around their cut-offs, the extremes of float64, the
// integral path (every integer to 10⁵ and each power of two to 2⁵³ and
// its neighbours, signed both ways, and integralFloats), a sweep of
// decimal magnitudes and a seeded sweep of random finite bit patterns.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 9.99e-7, -9.99e-7, 1e-6, -1e-6,
		1e20, 1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e-6, 0),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1, 2.5, 123456789.125,
	}
	values = append(values, integralFloats...)
	for i := 0; i <= 100_000; i++ {
		values = append(values, float64(i), -float64(i))
	}
	for e := 0; e <= 53; e++ {
		p := math.Ldexp(1, e)
		values = append(values, p-1, p, p+1, -(p - 1), -p, -(p + 1))
	}
	rng := rand.New(rand.NewSource(29))
	for exp := -30; exp <= 30; exp++ {
		for i := 0; i < 50; i++ {
			values = append(values, (rng.Float64()*2-1)*math.Pow(10, float64(exp)))
		}
	}
	for len(values) < 200_000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			values = append(values, f)
		}
	}
	for _, f := range values {
		checkJSONFloat(t, f)
	}
}

// FuzzAppendJSONFloat holds the formatter to encoding/json on any finite
// float64; its seeds are the cut-offs and extremes.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range append([]float64{0, math.Copysign(0, -1), 1, -1, 3, 1e-7, -1e-7, 9.99e-7, 1e-6,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.3333333333333333}, integralFloats...) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkJSONFloat(t, v)
	})
}

var errBrokenPipe = errors.New("broken pipe")

// brokenWriter is a ResponseWriter whose connection breaks after limit
// bytes: the Write that crosses the limit fails, and so does every Write
// after it, each counted.
type brokenWriter struct {
	header         http.Header
	limit          int
	written        int
	writes         int
	writesAfterErr int
	failed         bool
}

func (b *brokenWriter) Header() http.Header { return b.header }
func (b *brokenWriter) WriteHeader(int)     {}

func (b *brokenWriter) Write(p []byte) (int, error) {
	b.writes++
	if b.failed {
		b.writesAfterErr++
		return 0, errBrokenPipe
	}
	if b.written+len(p) > b.limit {
		n := b.limit - b.written
		b.written, b.failed = b.limit, true
		return n, errBrokenPipe
	}
	b.written += len(p)
	return len(p), nil
}

// TestJoinReplyStopsAtFirstFailedWrite: a client that hangs up mid-reply
// costs no further encoding — nothing is written after the failed Write —
// and the request still finishes cleanly: its reply span ends carrying the
// error, and its admission charge is returned.
func TestJoinReplyStopsAtFirstFailedWrite(t *testing.T) {
	s, _ := testServer(t, 512)
	const path = "/join?alg=hvnl&lambda=20&show=100000"
	whole := &brokenWriter{header: http.Header{}, limit: math.MaxInt}
	s.handler().ServeHTTP(whole, httptest.NewRequest("GET", path, nil))
	if whole.writes < 2 {
		t.Fatalf("the reply (%d bytes) took %d write; the test needs one that takes more", whole.written, whole.writes)
	}

	w := &brokenWriter{header: http.Header{}, limit: 100}
	s.handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if !w.failed {
		t.Fatalf("the reply fit in %d bytes", w.written)
	}
	t.Logf("a whole reply is %d bytes in %d writes; a broken one made %d", whole.written, whole.writes, w.writes)
	if w.writesAfterErr != 0 {
		t.Errorf("%d writes followed the failed one (%d writes in all)", w.writesAfterErr, w.writes)
	}

	traceID, _, err := reqtrace.ParseTraceparent(w.header.Get(reqtrace.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	d := s.recorder.Lookup(traceID.String())
	if d == nil {
		t.Fatalf("trace %s not recorded", traceID)
	}
	var replyErr string
	for _, sp := range d.Spans {
		if sp.Phase != "reply" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "error" {
				replyErr = a.Value
			}
		}
	}
	if replyErr != errBrokenPipe.Error() {
		t.Errorf("ended reply span carries error %q, want %q", replyErr, errBrokenPipe)
	}

	s.adm.mu.Lock()
	inUse := s.adm.inUse
	s.adm.mu.Unlock()
	if inflight := s.adm.inflight.Value(); inUse != 0 || inflight != 0 {
		t.Errorf("after the request: %d bytes admitted, %d requests in flight; want 0 and 0", inUse, inflight)
	}
}

// TestJoinReplyAllocationIsBounded: streaming serve_mix's largest reply
// shape — 771 rows of λ = 20 matches, about 0.6 MB of JSON — through the
// caller's encode buffer allocates the marshalled header alone, not a copy
// of the rows, a buffer of its own or one the size of the reply.
func TestJoinReplyAllocationIsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	results := make([]textjoin.Result, 771)
	for i := range results {
		results[i].Outer = uint32(i)
		results[i].Matches = make([]textjoin.Match, 20)
		for j := range results[i].Matches {
			results[i].Matches[j] = textjoin.Match{Doc: uint32(rng.Intn(1 << 16)), Sim: rng.Float64()}
		}
	}
	header := joinResponse{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Algorithm: "VVM", Lambda: 20,
		OuterDocs: 771, InnerDocs: 1542, Passes: 1, SeqReads: 60, Cost: 67.17,
		WallSeconds: 0.03, ExecSeconds: 0.01}
	w := &brokenWriter{header: http.Header{}, limit: math.MaxInt}
	buf := make([]byte, 0, replyBufBytes)

	const bound = 4 << 10
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := writeJoinReply(w, &header, results, len(results), buf); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes written per reply, %d allocated", w.written/3, least)
	if least > bound {
		t.Errorf("streaming a %d-byte reply allocated %d bytes, want at most %d", w.written/3, least, bound)
	}
}
