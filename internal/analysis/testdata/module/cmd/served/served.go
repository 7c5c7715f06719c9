// Package served is the lock-across-join fixture: it is in the scope
// of the fixture policy's second HeldCalls row, and fixture (the module
// root) is the facade whose Join* calls must not run under a held lock.
package served

import (
	"sync"

	"fixture"
)

// Server pairs a lock with a default λ.
type Server struct {
	mu     sync.Mutex
	lambda int
}

// Bad runs the whole join with the lock held: flagged.
func (s *Server) Bad() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fixture.Join(s.lambda) // want mutexhygiene "while holding a mutex"
}

// BadParallel holds across the parallel variant too: flagged.
func (s *Server) BadParallel() int {
	s.mu.Lock()
	n := fixture.JoinParallel(s.lambda, 2) // want mutexhygiene "while holding a mutex"
	s.mu.Unlock()
	return n
}

// Good reads shared state under a short lock and joins unlocked.
func (s *Server) Good() int {
	s.mu.Lock()
	lambda := s.lambda
	s.mu.Unlock()
	return fixture.Join(lambda)
}

// NonJoin calls the facade under the lock, but not a Join*: the rule
// is about running whole joins, not about touching the facade.
func (s *Server) NonJoin() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fixture.Prepare()
}

// Closure returns a handler; the closure body is its own scope and
// does not inherit the definition site's held lock.
func (s *Server) Closure() func() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() int { return fixture.Join(s.lambda) }
}
