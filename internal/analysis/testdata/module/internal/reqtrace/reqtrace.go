// Package reqtrace is the fixture span provider: the fixture policy's
// resourceleak table pairs StartSpan and StartChild with End.
package reqtrace

// Span is the fixture span type.
type Span struct{ open bool }

// StartSpan opens a root span.
func StartSpan(name string) *Span { return &Span{open: true} }

// StartChild opens a child span.
func (s *Span) StartChild(name string) *Span { return &Span{open: true} }

// End closes the span.
func (s *Span) End() { s.open = false }

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {}
