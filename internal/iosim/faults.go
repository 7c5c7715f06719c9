package iosim

import (
	"errors"
	"fmt"
)

// ErrInjected is the base error wrapped by injected faults, so tests can
// assert errors.Is(err, ErrInjected).
var ErrInjected = errors.New("iosim: injected fault")

// FaultPlan schedules read failures for fault-injection testing. The zero
// value injects nothing.
//
// Faults let the test suite verify that every scanner, builder and join
// algorithm propagates storage errors instead of masking them — the
// failure paths a purely happy-path suite never exercises.
type FaultPlan struct {
	// FailAfterReads makes the n+1-th page read (counting from the
	// moment the plan is armed) fail when > 0.
	FailAfterReads int64
	// FailFile restricts the failure to reads of the named file; empty
	// matches any file.
	FailFile string
	// Repeat keeps failing every read after the trigger instead of
	// failing once.
	Repeat bool
}

type faultState struct {
	plan  FaultPlan
	reads int64
	fired bool
}

// InjectFaults arms a fault plan on the disk, replacing any previous one.
// Passing the zero FaultPlan disarms injection.
func (d *Disk) InjectFaults(plan FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if plan == (FaultPlan{}) {
		d.faults = nil
		return
	}
	d.faults = &faultState{plan: plan}
}

// checkFault is called with the disk lock held before a read is served.
func (d *Disk) checkFault(f *File) error {
	fs := d.faults
	if fs == nil {
		return nil
	}
	if fs.plan.FailFile != "" && fs.plan.FailFile != f.name {
		return nil
	}
	fs.reads++
	if fs.reads <= fs.plan.FailAfterReads {
		return nil
	}
	if fs.fired && !fs.plan.Repeat {
		return nil
	}
	fs.fired = true
	return fmt.Errorf("%w: read %d of %q", ErrInjected, fs.reads, f.name)
}
