// Package clock is the wallclock fixture: an internal package, so it
// may read neither the wall clock nor the global rand state.
package clock

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock: flagged.
func Stamp() int64 {
	return time.Now().UnixNano() // want wallclock "must not read the wall clock"
}

// Elapsed also reads the clock: flagged.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want wallclock "must not read the wall clock"
}

// StoredClock stashes the clock for later: still flagged — it reads
// wall time whenever it runs.
var StoredClock = time.Now // want wallclock "must not read the wall clock"

// Roll touches the global rand state: flagged.
func Roll() int {
	return rand.Intn(6) // want wallclock "global rand state"
}

// Seeded builds an explicit generator: deterministic, allowed.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Arithmetic on time values without reading the clock is fine.
func Later(d time.Duration) time.Time {
	return time.Unix(0, 0).Add(d)
}

// Justified keeps a clock read with an explanation.
func Justified() time.Time {
	//lint:ignore wallclock fixture: operator-facing timestamp off every measured path
	return time.Now()
}
