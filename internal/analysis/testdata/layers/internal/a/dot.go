package a

import . "time" // want wallclock "dot-import of time"

// Wait hides its package behind the dot-import.
func Wait() { Sleep(Millisecond) }
