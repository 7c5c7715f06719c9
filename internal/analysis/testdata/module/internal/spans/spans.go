// Package spans exercises the span rows of the resourceleak table:
// every span started must be ended on all return paths, deferred, or
// handed off to someone who will end it.
package spans

import "fixture/internal/reqtrace"

// Dropped starts a span as a bare statement: nothing can ever end it.
func Dropped() {
	reqtrace.StartSpan("dropped") // want resourceleak "discards it"
}

// Blank discards the span through the blank identifier.
func Blank() {
	_ = reqtrace.StartSpan("blank") // want resourceleak "discards it"
}

// NeverEnded binds the span but no path ends it.
func NeverEnded() {
	s := reqtrace.StartSpan("leak") // want resourceleak "never releases it"
	s.SetAttr("k", "v")
}

// EarlyReturn ends the span on the happy path but leaks it on the
// error path — the exact bug the rule exists to catch.
func EarlyReturn(fail bool) {
	s := reqtrace.StartSpan("early")
	if fail {
		return // want resourceleak "returns without releasing s"
	}
	s.End()
}

// Deferred is the canonical safe shape: the deferred End runs on every
// return path, panics included.
func Deferred(fail bool) {
	s := reqtrace.StartSpan("deferred")
	defer s.End()
	if fail {
		return
	}
	s.SetAttr("k", "v")
}

// AllPaths ends the span explicitly before each return.
func AllPaths(fail bool) {
	s := reqtrace.StartSpan("paths")
	if fail {
		s.End()
		return
	}
	s.SetAttr("k", "v")
	s.End()
}

// Children started and ended inline stay clean, including the chained
// start-and-end expression.
func Children() {
	s := reqtrace.StartSpan("parent")
	c := s.StartChild("child")
	c.End()
	s.StartChild("instant").End()
	s.End()
}

// HandOff transfers the End responsibility to the callee.
func HandOff() {
	s := reqtrace.StartSpan("given")
	record(s)
}

func record(s *reqtrace.Span) { s.End() }

// Returned hands the span to the caller: the return is an escape, not
// a leak.
func Returned() *reqtrace.Span {
	s := reqtrace.StartSpan("exported")
	s.SetAttr("k", "v")
	return s
}

// Justified keeps a deliberate leak with an explanation.
func Justified() {
	//lint:ignore resourceleak fixture: process-lifetime span ended at shutdown elsewhere
	s := reqtrace.StartSpan("background")
	s.SetAttr("k", "v")
}
