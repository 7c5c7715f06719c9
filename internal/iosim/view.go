package iosim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ErrReadOnlyView is returned when a write is attempted through a view
// file: views are read-only sessions over an immutable store.
var ErrReadOnlyView = errors.New("iosim: view files are read-only")

// ErrViewClosed is returned when a view file is read after its view was
// closed.
var ErrViewClosed = errors.New("iosim: view is closed")

// View is a read-only I/O session over a Disk.
//
// The simulated disk models one head per file, so two concurrent readers
// of the same file would corrupt each other's sequential/random
// classification and interleave their counters. A View gives one logical
// request its own session: every file accessed through the view gets a
// private head position (starting parked) and private Stats, while the
// page bytes are served from the shared immutable store. Faults inject
// exactly as for direct reads.
//
// Views are cheap — a small struct plus one clone File per distinct file
// touched — and safe for concurrent use alongside other views and direct
// disk access. Close merges the view's counters back into the per-file
// and disk-wide totals, so aggregate accounting is preserved no matter
// how reads interleaved while the view was open.
type View struct {
	disk *Disk

	// All fields below are guarded by disk.mu.
	stats    Stats           // disk-level counters for this view
	lastFile *File           // this view's shared-head position
	clones   map[*File]*File // base file -> this view's session file
	closed   bool
}

// View opens a new read-only session on the disk. Its owner must Close
// it; OpenViews counts the views that have not been closed.
func (d *Disk) View() *View {
	d.mu.Lock()
	d.openViews++
	d.mu.Unlock()
	return &View{disk: d, clones: make(map[*File]*File)}
}

// OpenViews returns how many views of the disk are open: opened and not
// yet closed. Tests read it after a request to prove no path leaked a
// view, whose reads would then never reach the disk's totals.
func (d *Disk) OpenViews() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.openViews
}

// Disk returns the disk the view reads from.
func (v *View) Disk() *Disk { return v.disk }

// File returns the view's session file for base. The clone shares the
// base file's pages but owns its head position
// — initially parked — and its Stats. Calling File twice with the same
// base returns the same clone, so pointer identity within one view is
// preserved (I/O trackers that deduplicate by pointer keep working).
// Passing a clone (of this or another view) resolves to its base first;
// passing nil returns nil.
func (v *View) File(base *File) *File {
	if base == nil {
		return nil
	}
	if base.base != nil {
		base = base.base
	}
	if base.disk != v.disk {
		panic(fmt.Sprintf("iosim: view on disk %p cannot adopt file %q from disk %p", v.disk, base.name, base.disk))
	}
	v.disk.mu.Lock()
	defer v.disk.mu.Unlock()
	if c, ok := v.clones[base]; ok {
		return c
	}
	c := &File{disk: v.disk, name: base.name, head: -1, base: base, view: v}
	v.clones[base] = c
	return c
}

// Stats returns the I/O performed through the view so far. Until Close,
// these counters are visible only here; afterwards they are part of the
// per-file and disk totals.
func (v *View) Stats() Stats {
	v.disk.mu.Lock()
	defer v.disk.mu.Unlock()
	return v.stats
}

// FileStat is one file's I/O counters within a view session.
type FileStat struct {
	Name  string
	Stats Stats
}

// FileStats returns the I/O performed through the view so far for
// every file of the disk, sorted by file name, files the view never
// touched at zero: one request's page-read ledger, which a trace span
// and a program's collector take from the view.
func (v *View) FileStats() []FileStat {
	v.disk.mu.Lock()
	defer v.disk.mu.Unlock()
	out := make([]FileStat, 0, len(v.disk.files))
	for _, base := range v.disk.files {
		var st Stats
		if c := v.clones[base]; c != nil {
			st = c.stats
		}
		out = append(out, FileStat{Name: base.name, Stats: st})
	}
	slices.SortFunc(out, func(a, b FileStat) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// ParkHeads parks every session head of the view (and the view's shared
// head), mirroring Disk.ParkHeads for one session.
func (v *View) ParkHeads() {
	v.disk.mu.Lock()
	defer v.disk.mu.Unlock()
	for _, c := range v.clones {
		c.head = -1
	}
	v.lastFile = nil
}

// Close merges the view's counters into the per-file and disk-wide
// totals and invalidates the session: further reads through its files
// return ErrViewClosed. Close is idempotent.
func (v *View) Close() {
	v.disk.mu.Lock()
	defer v.disk.mu.Unlock()
	if v.closed {
		return
	}
	v.closed = true
	v.disk.openViews--
	for base, c := range v.clones {
		base.stats.Add(c.stats)
	}
	v.disk.stats.Add(v.stats)
}

// Base returns the underlying shared file when f is a view session file,
// or f itself otherwise.
func (f *File) Base() *File {
	if f.base != nil {
		return f.base
	}
	return f
}

// pagesLocked returns the page store backing f — the base file's pages
// for a view clone. Called with the disk lock held.
func (f *File) pagesLocked() [][]byte {
	if f.base != nil {
		return f.base.pages
	}
	return f.pages
}
