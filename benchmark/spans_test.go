package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60},    // overlaps a: covered once
		{ID: 3, Parent: 0, Name: "c", StartNs: 90, EndNs: 120},   // clipped to the parent's end
		{ID: 4, Parent: 1, Name: "leaf", StartNs: 15, EndNs: 20}, // a grandchild is not the parent's child
		{ID: 5, Parent: -1, Name: "op", StartNs: 200, EndNs: 230},
	}
	for id, want := range []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30} {
		if got := selfNs(spans, id); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	ns, n := selfByName(spans)
	if ns["op"] != 70 || n["op"] != 2 {
		t.Errorf("op: %d ns over %d spans, want 70 over 2", ns["op"], n["op"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.start("1", -1, "op")
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder()
	op := r.start("7", -1, "op")
	call := r.start("7", op, "call")
	r.end(call)
	r.end(op)
	if len(r.spans) != 2 || r.spans[call].Parent != op || r.spans[call].Op != "7" {
		t.Fatalf("spans %+v", r.spans)
	}
	if r.spans[op].EndNs < r.spans[call].EndNs || selfNs(r.spans, op) < 0 {
		t.Errorf("parent ends before its child: %+v", r.spans)
	}
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (ns map[string]int64, n map[string]int) {
	ns, n = map[string]int64{}, map[string]int{}
	for i, s := range spans {
		ns[s.Name] += selfNs(spans, i)
		n[s.Name]++
	}
	return ns, n
}
