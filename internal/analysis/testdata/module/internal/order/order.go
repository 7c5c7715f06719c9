// Package order exercises mutexhygiene's leaf-lock rule: no lock may be
// acquired, directly or through a same-package callee, while another
// lock — or the same one — is held.
package order

import "sync"

// S carries the direct two-lock inversion: LockAB nests a→b while
// LockBA nests b→a; each nested acquire is a finding on its own.
type S struct {
	a sync.Mutex
	b sync.Mutex
}

// LockAB holds a while taking b: the finding sits on the inner
// acquire and names the held lock.
func (s *S) LockAB() {
	s.a.Lock()
	s.b.Lock() // want mutexhygiene "acquires internal/order.S.b while holding internal/order.S.a: nested acquire"
	s.b.Unlock()
	s.a.Unlock()
}

// LockBA holds b while taking a — the opposite nesting.
func (s *S) LockBA() {
	s.b.Lock()
	s.a.Lock() // want mutexhygiene "nested acquire"
	s.a.Unlock()
	s.b.Unlock()
}

// Recurse re-acquires a held mutex: guaranteed self-deadlock.
func (s *S) Recurse() {
	s.a.Lock()
	s.a.Lock() // want mutexhygiene "while already holding it"
	s.a.Unlock()
	s.a.Unlock()
}

// T carries a nesting that only shows through the call graph: CD holds
// c across a call into lockD, DC nests the pair directly the other way.
type T struct {
	c sync.Mutex
	d sync.Mutex
}

// CD acquires d via lockD while holding c.
func (t *T) CD() {
	t.c.Lock()
	defer t.c.Unlock()
	t.lockD() // want mutexhygiene "lockD acquires internal/order.T.d"
}

func (t *T) lockD() {
	t.d.Lock()
	defer t.d.Unlock()
}

// DC nests d→c directly, under a deferred unlock that holds d to exit.
func (t *T) DC() {
	t.d.Lock()
	defer t.d.Unlock()
	t.c.Lock() // want mutexhygiene "nested acquire"
	t.c.Unlock()
}

// U carries a suppressed nesting: a known, documented inversion.
type U struct {
	e sync.Mutex
	f sync.Mutex
}

// EF holds e while taking f; the suppression below covers that one
// acquire and nothing else.
func (u *U) EF() {
	u.e.Lock()
	//lint:ignore mutexhygiene fixture: the inversion is deliberate, proving suppression works
	u.f.Lock()
	u.f.Unlock()
	u.e.Unlock()
}

// FE is the other half of the inversion; EF's directive does not reach it.
func (u *U) FE() {
	u.f.Lock()
	u.e.Lock() // want mutexhygiene "nested acquire"
	u.e.Unlock()
	u.f.Unlock()
}

// V nests its pair in the same g→h order everywhere: acyclic, and still
// flagged — a leaf-lock tree has no nesting to order.
type V struct {
	g sync.Mutex
	h sync.Mutex
}

func (v *V) One() {
	v.g.Lock()
	v.h.Lock() // want mutexhygiene "nested acquire"
	v.h.Unlock()
	v.g.Unlock()
}

func (v *V) Two() {
	v.g.Lock()
	defer v.g.Unlock()
	v.h.Lock() // want mutexhygiene "nested acquire"
	defer v.h.Unlock()
}

// W guards the must-analysis: p is held on only one path into the q
// acquire, so q is not nested under it — a may-analysis would flag the
// acquire. It is also the rule's documented false negative.
type W struct {
	p sync.Mutex
	q sync.Mutex
}

func (w *W) CondThenQ(flag bool) {
	if flag {
		w.p.Lock()
		defer w.p.Unlock()
	}
	w.q.Lock()
	w.q.Unlock()
}

// X reaches its inner lock through a callee that locks nothing itself:
// the acquire summaries are transitive, so the call is still a nested
// acquire.
type X struct {
	r sync.Mutex
	s sync.Mutex
}

func (x *X) Outer() {
	x.r.Lock()
	defer x.r.Unlock()
	x.middle() // want mutexhygiene "middle acquires internal/order.X.s"
}

func (x *X) middle() { x.inner() }

func (x *X) inner() {
	x.s.Lock()
	x.s.Unlock()
}
