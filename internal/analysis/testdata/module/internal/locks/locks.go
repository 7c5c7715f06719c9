// Package locks is the mutexhygiene held-call fixture: it is in the
// scope of the fixture policy's HeldCalls row whose forbidden callee
// is fixture/internal/iosim.
package locks

import (
	"sync"

	"fixture/internal/iosim"
)

// Store pairs a lock with a simulated file.
type Store struct {
	mu sync.Mutex
	f  *iosim.File
}

// Bad reads the simulated disk with the lock held: flagged.
func (s *Store) Bad() []byte {
	s.mu.Lock()
	page := s.f.ReadPage(0) // want mutexhygiene "while holding a mutex"
	s.mu.Unlock()
	return page
}

// BadDefer holds the lock for the whole function via defer: the read
// really happens under the lock, so it is flagged.
func (s *Store) BadDefer() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.ReadPage(0) // want mutexhygiene "while holding a mutex"
}

// Good releases before reading.
func (s *Store) Good() []byte {
	s.mu.Lock()
	s.mu.Unlock()
	return s.f.ReadPage(0)
}

// Handler returns a closure: the closure body is its own scope and
// does not run under the definition site's lock state.
func (s *Store) Handler() func() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() []byte { return s.f.ReadPage(1) }
}

// Justified suppresses a deliberate hold with a reason.
func (s *Store) Justified() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore mutexhygiene fixture: deliberate hold to exercise suppression
	return s.f.ReadPage(2)
}
