// Package resources exercises the resourceleak analyzer: every
// iosim.Open/OpenPair result must be Closed, deferred, returned or
// handed off on every path to exit.
package resources

import "fixture/internal/iosim"

// LeakOnEarlyReturn closes on the fall-through path only; the early
// return abandons the file.
func LeakOnEarlyReturn(flag bool) int {
	f := iosim.Open()
	if flag {
		return 0 // want resourceleak "returns without releasing f"
	}
	f.Close()
	return 1
}

// LeakAtEnd releases on one branch only, so the merged state still owes
// a Close when the function falls off its end.
func LeakAtEnd(flag bool) { // anchored at the acquire below
	f := iosim.Open() // want resourceleak "end of the function"
	if flag {
		f.Close()
	}
}

// NeverReleased has no release, defer or hand-off anywhere: one finding
// at the acquire, not one per path.
func NeverReleased() {
	f := iosim.Open() // want resourceleak "never releases"
	f.ReadPage(0)
}

// Discards drops the acquired file on the floor.
func Discards() {
	iosim.Open() // want resourceleak "discards it"
}

// DiscardsBlank is the blank-identifier flavor of the same bug.
func DiscardsBlank() {
	_ = iosim.Open() // want resourceleak "discards it"
}

// CleanDefer releases through a defer, which covers every path.
func CleanDefer(flag bool) int {
	f := iosim.Open()
	defer f.Close()
	if flag {
		return 0
	}
	return 1
}

// CleanDeferClosure releases through a deferred closure.
func CleanDeferClosure() {
	f := iosim.Open()
	defer func() {
		f.Close()
	}()
	f.ReadPage(0)
}

// CleanDeferInLoop is the classic false-positive trap: each iteration's
// defer releases its own file at function exit.
func CleanDeferInLoop(n int) {
	for i := 0; i < n; i++ {
		f := iosim.Open()
		defer f.Close()
	}
}

// CleanErrPath must not be flagged: on the err != nil edge the acquire
// failed and the nil file owes no Close.
func CleanErrPath() (int, error) {
	f, err := iosim.OpenPair()
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return 1, nil
}

// CleanNilCheck must not be flagged: the resource-is-nil edge owes no
// Close either.
func CleanNilCheck() int {
	f := iosim.Open()
	if f == nil {
		return 0
	}
	f.Close()
	return 1
}

// CleanDeclaredFirst declares the variable, may return before anything
// is acquired, and only then acquires: a bare declaration owes no Close.
func CleanDeclaredFirst(flag bool) int {
	var f *iosim.File
	if flag {
		return 0
	}
	f = iosim.Open()
	defer f.Close()
	return 1
}

// CleanReturned hands the file to the caller.
func CleanReturned() *iosim.File {
	f := iosim.Open()
	return f
}

// CleanHandOff transfers ownership to the sink.
func CleanHandOff(sink func(*iosim.File)) {
	f := iosim.Open()
	sink(f)
}

// CleanStored hands the file to a longer-lived owner.
type holder struct{ f *iosim.File }

func CleanStored(h *holder) {
	f := iosim.Open()
	h.f = f
}

// Suppressed documents a deliberate leak with a reasoned directive.
func Suppressed() {
	//lint:ignore resourceleak fixture: the leak is deliberate, proving suppression works
	f := iosim.Open()
	f.ReadPage(0)
}

// StaleDirective carries an ignore that suppresses nothing.
func StaleDirective() {
	//lint:ignore resourceleak this function is clean, so the directive is stale // want lintdirective "suppresses nothing"
	f := iosim.Open()
	defer f.Close()
}
