// Package invfile builds and reads the inverted files of the paper.
//
// For a term t in collection C, the inverted file entry is the list of
// i-cells (d#, w) — document number and occurrence count of t in that
// document — sorted by ascending document number. Entries are stored
// tightly packed in consecutive storage locations in ascending term-number
// order, so a full scan reads I pages sequentially (the access pattern of
// VVM), while single entries are located through the accompanying B+tree
// and fetched with random I/O (the access pattern of HVNL).
//
// As the paper notes, when document numbers and term numbers have the same
// size the inverted file of a collection has the same total size as the
// collection itself; the tests verify this equivalence.
package invfile

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"textjoin/internal/btree"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/iosim"
)

// Errors returned by the package.
var (
	ErrNoIndex = errors.New("invfile: term index not loaded; call LoadIndex first")
	ErrNoTerm  = errors.New("invfile: term has no entry")
)

// Stats describes an inverted file in the paper's terms.
type Stats struct {
	// Entries is the number of inverted file entries (= T, the number of
	// distinct terms).
	Entries int64
	// TotalCells is the total number of i-cells (= Σ document lengths).
	TotalCells int64
	// Bytes is the tightly packed size in bytes.
	Bytes int64
	// I is the size of the inverted file in pages.
	I int64
	// J is the average size of an inverted file entry in pages.
	J float64
	// PageSize is the page size the sizes are expressed in.
	PageSize int
}

// Entry is one decoded inverted-file entry.
type Entry struct {
	Term uint32
	// Cells are the i-cells: (document number, occurrences) pairs sorted
	// by ascending document number.
	Cells []codec.Cell
	// Column, when non-nil, holds the entry in place of Cells, which is
	// then nil: the occurrences of every document of the collection by
	// number, 0 for a document without the term. HVNL's cache holds an
	// entry so when it covers at least a quarter of the documents
	// (accum.Columnar). df is the count of the cells it was filled from.
	Column []uint16
	df     int
}

// Bytes returns the packed size of the entry.
func (e *Entry) Bytes() int64 { return codec.EncodedRecordSize(e.DocFreq()) }

// DocFreq returns the entry's document frequency.
func (e *Entry) DocFreq() int {
	if e.Column != nil {
		return e.df
	}
	return len(e.Cells)
}

// HoldColumn makes e term's entry in column form: col, filled from df
// cells, in place of any cells.
func (e *Entry) HoldColumn(term uint32, col []uint16, df int) {
	e.Term, e.Cells, e.Column, e.df = term, nil, col, df
}

// InvertedFile is a handle to a built inverted file and its B+tree.
type InvertedFile struct {
	entries *iosim.File
	tree    *btree.BTree
	stats   Stats
	// idx memoizes the in-memory B+tree image behind a pointer shared
	// by every view-bound copy of the handle, so the one-time LoadIndex
	// happens exactly once even when concurrent sessions race to it.
	idx *indexState
	// largest is the packed size of the longest entry: a scanner's stitch
	// window, and with it the most cells an entry decodes to.
	largest int64
}

// indexState holds the loaded term index, the in-memory B+tree image. The
// mutex serializes the one-time load; after that the index is read-only,
// so a probe reads it with one atomic load and no lock.
type indexState struct {
	mu    sync.Mutex
	index atomic.Pointer[btree.MemIndex]
}

// get returns the loaded index, or ErrNoIndex before LoadIndex.
func (s *indexState) get() (*btree.MemIndex, error) {
	idx := s.index.Load()
	if idx == nil {
		return nil, ErrNoIndex
	}
	return idx, nil
}

// extent returns the byte range of term's entry. Entries are packed in
// term order, so an entry ends where the next one starts, and the last
// at the end of the file's bytes.
func (f *InvertedFile) extent(term uint32) (off, length int64, err error) {
	idx, err := f.idx.get()
	if err != nil {
		return 0, 0, err
	}
	i, ok := idx.Pos(term)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrNoTerm, term)
	}
	cells := idx.Cells()
	end := f.stats.Bytes
	if i+1 < len(cells) {
		end = int64(cells[i+1].Addr)
	}
	off = int64(cells[i].Addr)
	return off, end - off, nil
}

// files is the one place that knows where a collection's inverted file
// lives on its disk: the entries in "<name>.inv", the B+tree in
// "<name>.btree". get is the disk's Create (build) or Open (re-attach).
func files(name string, get func(string) (*iosim.File, error)) (entryFile, treeFile *iosim.File, err error) {
	if entryFile, err = get(name + ".inv"); err != nil {
		return nil, nil, err
	}
	if treeFile, err = get(name + ".btree"); err != nil {
		return nil, nil, err
	}
	return entryFile, treeFile, nil
}

// BuildOn builds c's inverted file and B+tree in fresh files on d, named
// after c (see Build for the I/O it charges).
func BuildOn(d *iosim.Disk, c *collection.Collection) (*InvertedFile, error) {
	ef, tf, err := files(c.Name(), d.Create)
	if err != nil {
		return nil, err
	}
	return Build(c, ef, tf)
}

// BuildRemappedOn is BuildOn for a reordered collection c: the postings
// come from src, the original order's inverted file, through newID (see
// BuildRemapped).
func BuildRemappedOn(d *iosim.Disk, c *collection.Collection, src *InvertedFile, newID func(uint32) uint32) (*InvertedFile, error) {
	ef, tf, err := files(c.Name(), d.Create)
	if err != nil {
		return nil, err
	}
	return BuildRemapped(src, newID, ef, tf)
}

// OpenOn re-attaches to the inverted file BuildOn or BuildRemappedOn
// wrote for c on d (see Open).
func OpenOn(d *iosim.Disk, c *collection.Collection) (*InvertedFile, error) {
	ef, tf, err := files(c.Name(), d.Open)
	if err != nil {
		return nil, err
	}
	return Open(ef, tf)
}

// Build scans a collection and writes its inverted file into entryFile and
// the accompanying B+tree into treeFile (both must be empty). The scan of
// the collection is charged to the collection's disk like any other scan;
// callers that only want to measure join-time I/O should reset the disk
// statistics afterwards.
//
// The build counts instead of collecting: the collection's df table gives
// every posting list its length, so the lists are laid end to end in one
// arena in term order and one scan drops each i-cell into its slot.
// Document ids arrive in ascending order, so each list fills sorted.
func Build(c *collection.Collection, entryFile, treeFile *iosim.File) (*InvertedFile, error) {
	if entryFile.Pages() != 0 || treeFile.Pages() != 0 {
		return nil, fmt.Errorf("invfile: build targets must be empty")
	}
	terms := c.Terms()
	offs := make([]int, len(terms)+1)
	// next[t] is where term t's next i-cell goes.
	var next []int
	if len(terms) > 0 {
		next = make([]int, terms[len(terms)-1]+1)
	}
	for i, t := range terms {
		next[t] = offs[i]
		offs[i+1] = offs[i] + int(c.DF(t))
	}
	arena := make([]codec.Cell, offs[len(terms)])
	sc := c.Scan()
	for {
		doc, err := sc.NextReuse()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, cell := range doc.Cells {
			arena[next[cell.Term]] = codec.Cell{Number: doc.ID, Weight: cell.Weight}
			next[cell.Term]++
		}
	}
	for i, t := range terms {
		if next[t] != offs[i+1] {
			return nil, fmt.Errorf("invfile: term %d has %d i-cells, its df says %d", t, next[t]-offs[i], offs[i+1]-offs[i])
		}
	}
	return writeEntries(entryFile, treeFile, terms, offs, arena)
}

// BuildRemapped writes an inverted file equivalent to src with every
// i-cell's document number rewritten through newID — the remap step of
// the cluster-driven build path (cluster.Reorder renumbers documents;
// the postings must follow, typically via IDMap.Inverse). src is scanned
// sequentially once, in term order; each entry's cells are renumbered
// onto the end of one arena and re-sorted there into ascending new-id
// order.
func BuildRemapped(src *InvertedFile, newID func(uint32) uint32, entryFile, treeFile *iosim.File) (*InvertedFile, error) {
	if entryFile.Pages() != 0 || treeFile.Pages() != 0 {
		return nil, fmt.Errorf("invfile: build targets must be empty")
	}
	// The stats size the slices; TotalCells is a lower bound for a
	// re-opened file, whose 2-byte df fields saturate.
	terms := make([]uint32, 0, src.stats.Entries)
	offs := make([]int, 1, src.stats.Entries+1)
	arena := make([]codec.Cell, 0, src.stats.TotalCells)
	sc := src.Scan()
	for {
		e, err := sc.NextReuse()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		start := len(arena)
		for _, c := range e.Cells {
			arena = append(arena, codec.Cell{Number: newID(c.Number), Weight: c.Weight})
		}
		slices.SortFunc(arena[start:], func(a, b codec.Cell) int { return cmp.Compare(a.Number, b.Number) })
		terms = append(terms, e.Term)
		offs = append(offs, len(arena))
	}
	return writeEntries(entryFile, treeFile, terms, offs, arena)
}

// writeEntries is the shared tail of Build and BuildRemapped: it lays
// the entries for terms (ascending) into entryFile, builds the B+-tree
// directory and assembles the stats. Term terms[i]'s i-cells are
// arena[offs[i]:offs[i+1]].
func writeEntries(entryFile, treeFile *iosim.File, terms []uint32, offs []int, arena []codec.Cell) (*InvertedFile, error) {
	w := entryFile.Writer()
	treeCells := make([]codec.BTreeCell, 0, len(terms))
	var buf []byte
	for i, t := range terms {
		cells := arena[offs[i]:offs[i+1]]
		off := w.Offset()
		var err error
		buf, err = codec.AppendRecord(buf[:0], codec.Record{Number: t, Cells: cells})
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(buf); err != nil {
			return nil, err
		}
		df := len(cells)
		if df > int(codec.MaxWeight) {
			df = int(codec.MaxWeight) // the 2-byte df field saturates
		}
		treeCells = append(treeCells, codec.BTreeCell{
			Term:    t,
			Addr:    uint32(off),
			DocFreq: uint16(df),
		})
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	var tree *btree.BTree
	if len(treeCells) > 0 {
		var err error
		tree, err = btree.Build(treeFile, treeCells)
		if err != nil {
			return nil, err
		}
	}
	stats := Stats{
		Entries:    int64(len(terms)),
		TotalCells: int64(len(arena)),
		Bytes:      w.Offset(),
		I:          entryFile.Pages(),
		PageSize:   entryFile.PageSize(),
	}
	if stats.Entries > 0 {
		stats.J = float64(stats.Bytes) / float64(stats.Entries) / float64(stats.PageSize)
	}
	return &InvertedFile{entries: entryFile, tree: tree, stats: stats, idx: &indexState{},
		largest: largestEntry(treeCells, stats.Bytes)}, nil
}

// largestEntry returns the packed size of the longest entry laid out at
// the addresses of cells, in a file of bytes bytes: an entry ends where
// the next one starts.
func largestEntry(cells []codec.BTreeCell, bytes int64) int64 {
	var l int64
	for i, c := range cells {
		end := bytes
		if i+1 < len(cells) {
			end = int64(cells[i+1].Addr)
		}
		l = max(l, end-int64(c.Addr))
	}
	return l
}

// Open re-attaches to an inverted file and its B+tree written earlier
// (e.g. restored from a disk snapshot). The statistics are rebuilt from
// the B+tree's in-memory image plus one header read of the last entry to
// learn the packed size; the tree load is charged as usual.
func Open(entryFile, treeFile *iosim.File) (*InvertedFile, error) {
	if treeFile.Pages() == 0 {
		// Empty collection: no tree was ever built.
		return &InvertedFile{
			entries: entryFile,
			stats:   Stats{PageSize: entryFile.PageSize(), I: entryFile.Pages()},
			idx:     &indexState{},
		}, nil
	}
	tree, err := btree.Open(treeFile)
	if err != nil {
		return nil, err
	}
	idx, err := tree.LoadAll()
	if err != nil {
		return nil, err
	}
	f := &InvertedFile{
		entries: entryFile,
		tree:    tree,
		stats: Stats{
			Entries:  tree.Cells(),
			I:        entryFile.Pages(),
			PageSize: entryFile.PageSize(),
		},
		idx: &indexState{},
	}
	cells := idx.Cells()
	var totalCells int64
	for _, c := range cells {
		totalCells += int64(c.DocFreq)
	}
	f.stats.TotalCells = totalCells
	if len(cells) > 0 {
		last := cells[len(cells)-1]
		hdr, err := entryFile.ReadAt(int64(last.Addr), codec.EntryHeaderSize)
		if err != nil {
			return nil, err
		}
		size, err := codec.PeekRecordSize(hdr)
		if err != nil {
			return nil, err
		}
		entryFile.ParkHead()
		f.stats.Bytes = int64(last.Addr) + size
		f.stats.J = float64(f.stats.Bytes) / float64(f.stats.Entries) / float64(f.stats.PageSize)
		f.largest = largestEntry(cells, f.stats.Bytes)
	}
	f.idx.index.Store(idx)
	return f, nil
}

// Stats returns the inverted file's statistics.
func (f *InvertedFile) Stats() Stats { return f.stats }

// Tree returns the accompanying B+tree (nil for an empty file).
func (f *InvertedFile) Tree() *btree.BTree { return f.tree }

// File returns the underlying entry file.
func (f *InvertedFile) File() *iosim.File { return f.entries }

// LoadIndex reads the whole B+tree into memory (the paper's one-time cost
// of Bt sequential page reads) and prepares random entry fetches. It is
// idempotent; repeat calls are free.
func (f *InvertedFile) LoadIndex() (*btree.MemIndex, error) {
	f.idx.mu.Lock()
	defer f.idx.mu.Unlock()
	if idx := f.idx.index.Load(); idx != nil {
		return idx, nil
	}
	idx := btree.NewMemIndex(nil)
	if f.tree != nil {
		var err error
		if idx, err = f.tree.LoadAll(); err != nil {
			return nil, err
		}
	}
	f.idx.index.Store(idx)
	return idx, nil
}

// Index returns the loaded in-memory index, or an error when LoadIndex has
// not been called.
func (f *InvertedFile) Index() (*btree.MemIndex, error) {
	return f.idx.get()
}

// EntryPages returns the number of pages a random fetch of term's entry
// touches (the paper charges ⌈J⌉ pages per random entry read).
func (f *InvertedFile) EntryPages(term uint32) (int64, error) {
	off, length, err := f.extent(term)
	if err != nil {
		return 0, err
	}
	return iosim.SpannedPages(off, length, f.stats.PageSize), nil
}

// FetchEntry reads the entry of term with a random access through the
// loaded index into a new entry (see FetchEntryInto).
func (f *InvertedFile) FetchEntry(term uint32) (*Entry, error) {
	e := &Entry{}
	if _, err := f.FetchEntryInto(term, e, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// FetchEntryInto reads the entry of term with a random access through the
// loaded index, touching every page the entry spans, and decodes it into
// e, reusing the capacity of e.Cells. The head is parked afterwards:
// consecutive fetches of unrelated terms are all random, as in the paper's
// ⌈J⌉·α per-entry cost. An entry inside one page decodes straight from
// the page image; one crossing pages is stitched into scratch, which is
// returned, grown if it had to be, for the next call. With enough capacity
// in both, a fetch allocates nothing.
func (f *InvertedFile) FetchEntryInto(term uint32, e *Entry, scratch []byte) ([]byte, error) {
	off, length, err := f.extent(term)
	if err != nil {
		return scratch, err
	}
	if iosim.SpannedPages(off, length, f.entries.PageSize()) > 1 {
		scratch = slices.Grow(scratch[:0], int(length))
	}
	raw, err := f.entries.ReadSpan(off, length, scratch)
	if err != nil {
		return scratch, err
	}
	f.entries.ParkHead()
	number, cells, _, err := codec.DecodeRecordInto(raw, e.Cells[:0])
	if err != nil {
		return scratch, err
	}
	e.Term, e.Cells = number, cells
	return scratch, nil
}

// Contains reports whether term has an entry, using the loaded index
// without touching storage.
func (f *InvertedFile) Contains(term uint32) (bool, error) {
	idx, err := f.idx.get()
	if err != nil {
		return false, err
	}
	return idx.Contains(term), nil
}

// DocFreq returns the document frequency of term from the loaded index (0
// when absent).
func (f *InvertedFile) DocFreq(term uint32) (int64, error) {
	idx, err := f.idx.get()
	if err != nil {
		return 0, err
	}
	c, ok := idx.Lookup(term)
	if !ok {
		return 0, nil
	}
	return int64(c.DocFreq), nil
}

// Scanner iterates entries in ascending term order, reading the entry file
// sequentially exactly once (the access pattern of VVM's merge scan)
// through one iosim.Stream, like collection.Scanner: an entry inside one
// page is decoded straight out of the page image.
type Scanner struct {
	f        *InvertedFile
	stream   iosim.Stream
	entry    Entry // arena for NextReuse
	consumed int64
	err      error
}

// Scan starts a sequential scan over all entries.
func (f *InvertedFile) Scan() *Scanner {
	s := &Scanner{}
	s.Reset(f)
	return s
}

// Reset restarts s as f.Scan would, keeping its buffers: the stream's
// stitch window and the arena entry's cells hold f's largest entry, so
// no scan of f grows them. A nil f detaches s from its file.
func (s *Scanner) Reset(f *InvertedFile) {
	var file *iosim.File
	var largest int64
	if f != nil {
		file, largest = f.entries, f.largest
	}
	s.stream.Reset(file, int(largest))
	s.f, s.consumed, s.err = f, 0, nil
	cells := max(0, (largest-codec.EntryHeaderSize)/codec.CellSize)
	s.entry = Entry{Cells: slices.Grow(s.entry.Cells[:0], int(cells))}
}

// NextReuse returns the next entry, or io.EOF after the last one. The
// entry lives in the scanner's arena: it is valid only until the next
// call, and a caller that retains it copies it. The steady state
// allocates nothing.
func (s *Scanner) NextReuse() (*Entry, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.consumed >= s.f.stats.Bytes {
		s.err = io.EOF
		return nil, io.EOF
	}
	hdr, err := s.stream.Peek(codec.EntryHeaderSize)
	if err != nil {
		s.err = err
		return nil, err
	}
	size, err := codec.PeekRecordSize(hdr)
	if err != nil {
		s.err = err
		return nil, err
	}
	raw, err := s.stream.Next(int(size))
	if err != nil {
		s.err = err
		return nil, err
	}
	term, cells, _, err := codec.DecodeRecordInto(raw, s.entry.Cells[:0])
	if err != nil {
		s.err = err
		return nil, err
	}
	s.entry.Term = term
	s.entry.Cells = cells
	s.consumed += size
	return &s.entry, nil
}
