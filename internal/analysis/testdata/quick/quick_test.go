package quick

import (
	"math/rand"
	"testing"
	q "testing/quick"
)

func TestProperties(t *testing.T) {
	f := func(x int) bool { return x == x }
	_ = q.Check(f, nil)                     // want quickseed "nil config"
	_ = q.CheckEqual(f, f, nil)             // want quickseed "nil config"
	_ = q.Check(f, &q.Config{MaxCount: 10}) // want quickseed "without Rand"
	_ = q.Check(f, &q.Config{Rand: nil})    // want quickseed "without Rand"
	cfg := q.Config{}                       // want quickseed "without Rand"
	_ = q.Check(f, &cfg)
	_ = q.Check(f, &q.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))})
	_ = q.CheckEqual(f, f, &q.Config{Rand: rand.New(rand.NewSource(2))})
}
