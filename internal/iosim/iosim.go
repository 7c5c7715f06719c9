// Package iosim provides a simulated paged storage device.
//
// The paper analyzes the three text-join algorithms purely by their I/O
// cost, abstracting the storage hardware into two numbers: the page size P
// and the cost ratio α of a random page read over a sequential page read.
// This package implements exactly that abstraction: files are sequences of
// fixed-size pages, every read is classified as sequential or random from
// the position of the per-file head, and the accumulated cost is
//
//	cost = sequentialReads + α · randomReads.
//
// Each file tracks its own head position, which models the paper's
// assumption that each collection is read by a dedicated drive with no
// interference from other I/O requests. A Disk-wide shared head mode is
// available to model the opposite, contended, scenario (the paper's
// "random" cost variants).
package iosim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultPageSize is the page size used throughout the paper (4 KB).
const DefaultPageSize = 4096

// DefaultAlpha is the paper's base value for the random/sequential cost ratio.
const DefaultAlpha = 5.0

// Common errors returned by Disk and File operations.
var (
	ErrFileExists   = errors.New("iosim: file already exists")
	ErrFileNotFound = errors.New("iosim: file not found")
	ErrPageRange    = errors.New("iosim: page index out of range")
	ErrClosed       = errors.New("iosim: disk is closed")
)

// Stats accumulates I/O counters. Counters are page-granular: reading a
// document that spans three pages accounts for three page reads.
type Stats struct {
	// SeqReads counts page reads that continued from the file head.
	SeqReads int64
	// RandReads counts page reads that required repositioning the head.
	RandReads int64
	// Writes counts page writes. Writes are not part of the paper's cost
	// model (all structures are built ahead of the join) but are tracked
	// for completeness.
	Writes int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.SeqReads += other.SeqReads
	s.RandReads += other.RandReads
	s.Writes += other.Writes
}

// Reads returns the total number of page reads.
func (s Stats) Reads() int64 { return s.SeqReads + s.RandReads }

// Cost returns the paper's I/O cost: sequential reads count 1 unit each,
// random reads count alpha units each.
func (s Stats) Cost(alpha float64) float64 {
	return float64(s.SeqReads) + alpha*float64(s.RandReads)
}

// String formats the counters for logs and test output.
func (s Stats) String() string {
	return fmt.Sprintf("seq=%d rand=%d writes=%d", s.SeqReads, s.RandReads, s.Writes)
}

// Sub returns s minus other, useful for measuring a phase between two
// snapshots.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		SeqReads:  s.SeqReads - other.SeqReads,
		RandReads: s.RandReads - other.RandReads,
		Writes:    s.Writes - other.Writes,
	}
}

// Disk is a collection of simulated paged files sharing one set of I/O
// counters.
//
// Disk is safe for concurrent use.
type Disk struct {
	mu       sync.Mutex
	pageSize int
	alpha    float64
	files    map[string]*File
	stats    Stats
	closed   bool
	// openViews counts the views opened and not yet closed; a view
	// left open never merges its counters into stats.
	openViews int

	// readDelay, when positive, charges every page read that much real
	// wall-clock time, outside the disk lock — the device-latency knob
	// for serving benchmarks. Zero (the default) keeps reads free, so
	// analytic runs and tests are unaffected. Immutable after NewDisk.
	readDelay time.Duration

	// sharedHead, when true, makes all files share a single head: any
	// read on file A after a read on file B is random even if it would
	// have been sequential on A's own head. Models a single contended
	// device.
	sharedHead bool
	lastFile   *File
	faults     *faultState
}

// Option configures a Disk.
type Option func(*Disk)

// WithPageSize sets the page size in bytes. The default is 4096.
func WithPageSize(n int) Option {
	return func(d *Disk) { d.pageSize = n }
}

// WithAlpha sets the random/sequential cost ratio used by Cost.
func WithAlpha(alpha float64) Option {
	return func(d *Disk) { d.alpha = alpha }
}

// WithSharedHead makes all files on the disk share one head position,
// modeling a single contended device instead of one dedicated drive per
// collection.
func WithSharedHead() Option {
	return func(d *Disk) { d.sharedHead = true }
}

// WithReadDelay charges every successful page read d of real wall-clock
// time, slept outside the disk lock so concurrent readers overlap their
// waits exactly as they would on a real device. The accounting (Stats,
// cost model) is unchanged — the knob only makes simulated
// I/O take real time, which is what serving benchmarks need to expose
// the difference between serialized and concurrent execution.
func WithReadDelay(d time.Duration) Option {
	return func(dk *Disk) { dk.readDelay = d }
}

// NewDisk creates an empty simulated disk.
func NewDisk(opts ...Option) *Disk {
	d := &Disk{
		pageSize: DefaultPageSize,
		alpha:    DefaultAlpha,
		files:    make(map[string]*File),
	}
	for _, o := range opts {
		o(d)
	}
	if d.pageSize <= 0 {
		panic("iosim: page size must be positive")
	}
	return d
}

// PageSize returns the disk's page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// Alpha returns the disk's random/sequential cost ratio.
func (d *Disk) Alpha() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alpha
}

// SetAlpha changes the cost ratio; it affects only future Cost calls, the
// per-class counters are unchanged.
func (d *Disk) SetAlpha(alpha float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alpha = alpha
}

// Create creates a new empty file.
func (d *Disk) Create(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrFileExists, name)
	}
	f := &File{disk: d, name: name, head: -1}
	d.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (d *Disk) Open(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrFileNotFound, name)
	}
	return f, nil
}

// Remove deletes a file and frees its pages.
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrFileNotFound, name)
	}
	delete(d.files, name)
	return nil
}

// Files returns the names of all files in lexical order.
func (d *Disk) Files() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the accumulated I/O counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the I/O counters, e.g. after the build phase so that
// only join-time I/O is measured.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// ParkHeads parks every file's head (and the shared head, if any) so
// the next read of each file counts as random regardless of prior
// activity. Benchmarks park between measurements so a cell's
// sequential/random classification does not depend on where the
// previous cell left the heads.
func (d *Disk) ParkHeads() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.files {
		f.head = -1
	}
	d.lastFile = nil
}

// Cost returns the accumulated cost under the disk's α.
func (d *Disk) Cost() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Cost(d.alpha)
}

// Close invalidates the disk; subsequent Create/Open calls fail. Files
// already opened remain readable (the simulation has no real resources to
// release); Close exists so that users of the package can model lifecycle
// errors.
func (d *Disk) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
}

// File is a sequence of fixed-size pages on a Disk.
type File struct {
	disk  *Disk
	name  string
	pages [][]byte
	head  int64 // page index of the last page read; -1 = parked
	stats Stats

	// base and view are set on the session files handed out by
	// View.File: page bytes come from base, head and stats are private
	// to this session, and the counters merge into base on View.Close.
	base *File
	view *View
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// PageSize returns the page size of the disk holding the file.
func (f *File) PageSize() int { return f.disk.pageSize }

// Disk returns the disk holding the file.
func (f *File) Disk() *Disk { return f.disk }

// Pages returns the current number of pages in the file.
func (f *File) Pages() int64 {
	f.disk.mu.Lock()
	defer f.disk.mu.Unlock()
	return int64(len(f.pagesLocked()))
}

// Size returns the file size in bytes.
func (f *File) Size() int64 {
	f.disk.mu.Lock()
	defer f.disk.mu.Unlock()
	return int64(len(f.pagesLocked())) * int64(f.disk.pageSize)
}

// Stats returns the per-file I/O counters.
func (f *File) Stats() Stats {
	f.disk.mu.Lock()
	defer f.disk.mu.Unlock()
	return f.stats
}

// ParkHead forgets the head position so that the next read, even at the
// next sequential position, counts as random. Used to model yielding the
// device between phases.
func (f *File) ParkHead() {
	f.disk.mu.Lock()
	defer f.disk.mu.Unlock()
	f.head = -1
}

// AppendPage appends one page. data may be shorter than the page size, in
// which case the remainder is zero; longer data is an error.
func (f *File) AppendPage(data []byte) (int64, error) {
	f.disk.mu.Lock()
	defer f.disk.mu.Unlock()
	if f.base != nil {
		return 0, fmt.Errorf("%w: append to %q", ErrReadOnlyView, f.name)
	}
	if len(data) > f.disk.pageSize {
		return 0, fmt.Errorf("iosim: page data %d bytes exceeds page size %d", len(data), f.disk.pageSize)
	}
	page := make([]byte, f.disk.pageSize)
	copy(page, data)
	f.pages = append(f.pages, page)
	f.stats.Writes++
	f.disk.stats.Writes++
	return int64(len(f.pages) - 1), nil
}

// WritePage overwrites an existing page (or appends when idx equals the
// current page count).
func (f *File) WritePage(idx int64, data []byte) error {
	f.disk.mu.Lock()
	defer f.disk.mu.Unlock()
	if f.base != nil {
		return fmt.Errorf("%w: write to %q", ErrReadOnlyView, f.name)
	}
	if len(data) > f.disk.pageSize {
		return fmt.Errorf("iosim: page data %d bytes exceeds page size %d", len(data), f.disk.pageSize)
	}
	switch {
	case idx == int64(len(f.pages)):
		page := make([]byte, f.disk.pageSize)
		copy(page, data)
		f.pages = append(f.pages, page)
	case idx >= 0 && idx < int64(len(f.pages)):
		page := make([]byte, f.disk.pageSize)
		copy(page, data)
		f.pages[idx] = page
	default:
		return fmt.Errorf("%w: page %d of %d", ErrPageRange, idx, len(f.pages))
	}
	f.stats.Writes++
	f.disk.stats.Writes++
	return nil
}

// ReadPage reads page idx and classifies the read as sequential or random
// based on the head position. The returned slice aliases the stored page
// and must not be modified.
func (f *File) ReadPage(idx int64) ([]byte, error) {
	f.disk.mu.Lock()
	page, err := f.readPageLocked(idx)
	f.disk.mu.Unlock()
	if err == nil && f.disk.readDelay > 0 {
		time.Sleep(f.disk.readDelay)
	}
	return page, err
}

func (f *File) readPageLocked(idx int64) ([]byte, error) {
	pages := f.pagesLocked()
	if idx < 0 || idx >= int64(len(pages)) {
		return nil, fmt.Errorf("%w: page %d of %d in %q", ErrPageRange, idx, len(pages), f.name)
	}
	if f.view != nil && f.view.closed {
		return nil, fmt.Errorf("%w: read of %q", ErrViewClosed, f.name)
	}
	if err := f.disk.checkFault(f); err != nil {
		return nil, err
	}
	// A view session carries its own shared-head position and its own
	// disk-level counters; direct reads use the disk's.
	lastFile, aggStats := &f.disk.lastFile, &f.disk.stats
	if f.view != nil {
		lastFile, aggStats = &f.view.lastFile, &f.view.stats
	}
	sequential := f.head >= 0 && idx == f.head+1
	if f.disk.sharedHead && *lastFile != f {
		sequential = false
	}
	if sequential {
		f.stats.SeqReads++
		aggStats.SeqReads++
	} else {
		f.stats.RandReads++
		aggStats.RandReads++
	}
	f.head = idx
	*lastFile = f
	return pages[idx], nil
}

// ReadAt copies length bytes starting at byte offset off, reading every
// page the range spans: ReadSpan into a buffer the caller owns.
func (f *File) ReadAt(off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	out := make([]byte, 0, length)
	span, err := f.ReadSpan(off, length, out)
	if err != nil {
		return nil, err
	}
	return append(out, span...), nil
}

// ReadSpan returns the length bytes starting at byte offset off, reading
// every page the range spans. It is the primitive used to fetch a packed
// record (document or inverted-file entry) that may cross page
// boundaries. A range inside one page is returned as a slice of the page
// image, which must not be modified; a range crossing pages is stitched
// into scratch, grown if it is too small. Either way the page reads and
// their sequential/random classification are ReadAt's.
func (f *File) ReadSpan(off, length int64, scratch []byte) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	ps := int64(f.disk.pageSize)
	if pageOff := off % ps; length > 0 && pageOff+length <= ps {
		page, err := f.ReadPage(off / ps)
		if err != nil {
			return nil, err
		}
		return page[pageOff : pageOff+length : pageOff+length], nil
	}
	out := scratch[:0]
	for remaining := length; remaining > 0; {
		pageOff := off % ps
		page, err := f.ReadPage(off / ps)
		if err != nil {
			return nil, err
		}
		take := min(ps-pageOff, remaining)
		out = append(out, page[pageOff:pageOff+take]...)
		off += take
		remaining -= take
	}
	return out, nil
}

func checkRange(off, length int64) error {
	if length < 0 || off < 0 {
		return fmt.Errorf("iosim: negative offset or length (off=%d len=%d)", off, length)
	}
	return nil
}

// Writer returns an appending byte writer that packs bytes tightly into
// pages ("tightly packed" in the paper's terms). Call Flush to write the
// final partial page.
func (f *File) Writer() *Writer {
	return &Writer{file: f, buf: make([]byte, 0, f.disk.pageSize)}
}

// Writer packs a byte stream into consecutive pages of a File.
type Writer struct {
	file    *File
	buf     []byte
	written int64
	flushed bool
}

// Offset returns the byte offset at which the next Write will land.
func (w *Writer) Offset() int64 { return w.written }

// Write appends p to the stream. It never fails until the underlying file
// does; the error is reported then.
func (w *Writer) Write(p []byte) (int, error) {
	if w.flushed {
		return 0, errors.New("iosim: write after Flush")
	}
	total := len(p)
	ps := w.file.disk.pageSize
	for len(p) > 0 {
		space := ps - len(w.buf)
		take := space
		if take > len(p) {
			take = len(p)
		}
		w.buf = append(w.buf, p[:take]...)
		p = p[take:]
		if len(w.buf) == ps {
			if _, err := w.file.AppendPage(w.buf); err != nil {
				return total - len(p), err
			}
			w.buf = w.buf[:0]
		}
	}
	w.written += int64(total)
	return total, nil
}

// Flush writes the final partial page, if any. The writer cannot be used
// afterwards.
func (w *Writer) Flush() error {
	if w.flushed {
		return nil
	}
	w.flushed = true
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.file.AppendPage(w.buf)
	w.buf = nil
	return err
}

// PagesForBytes returns the number of pages that n tightly packed bytes
// occupy under the given page size (the paper's ceiling convention).
func PagesForBytes(n int64, pageSize int) int64 {
	if n <= 0 {
		return 0
	}
	ps := int64(pageSize)
	return (n + ps - 1) / ps
}

// SpannedPages returns how many pages the byte range [off, off+length)
// touches: the page count actually read when fetching a packed record at a
// random position.
func SpannedPages(off, length int64, pageSize int) int64 {
	if length <= 0 {
		return 0
	}
	ps := int64(pageSize)
	first := off / ps
	last := (off + length - 1) / ps
	return last - first + 1
}
