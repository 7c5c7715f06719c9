package a

import (
	"math/rand"
	"time"

	clk "time"
)

// Stamp reads the wall clock through an aliased import: flagged.
func Stamp() int64 {
	return clk.Now().UnixNano() // want wallclock "time.Now: internal packages must not read the wall clock"
}

// Elapsed stores the clock for later: still a wall-clock read, flagged.
func Elapsed(t0 time.Time) time.Duration {
	f := time.Now // want wallclock "time.Now: internal packages must not read the wall clock"
	return f().Sub(t0)
}

// Roll draws from the global rand source: flagged.
func Roll() int {
	return rand.Intn(6) // want wallclock "rand.Intn uses the global rand state"
}

// Seeded builds an explicit generator and a Zipf sampler on it, and
// sleeps without reading the clock: all legal.
func Seeded(seed int64, pause time.Duration) (*rand.Rand, *rand.Zipf) {
	time.Sleep(pause)
	r := rand.New(rand.NewSource(seed))
	return r, rand.NewZipf(r, 1.5, 1, 100)
}
