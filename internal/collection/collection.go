// Package collection stores a document collection on a simulated disk
// exactly as the paper assumes: documents packed tightly in consecutive
// storage locations in ascending document-number order.
//
// Scanning the collection in storage order therefore reads D pages
// sequentially, while fetching single documents in random order reads
// ⌈S⌉ pages per document at random-I/O cost — the two access patterns the
// paper's cost formulas are built from.
//
// The package also implements selection subsets: "due to selection
// conditions on other attributes ... it is possible that only part of the
// documents in a collection need to participate in a join". A Subset reads
// its documents by number (random I/O, the paper's Group 3 setting), while
// Materialize copies a subset into a new, originally small collection
// (the Group 4 setting).
package collection

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"textjoin/internal/codec"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// Errors returned by the package.
var (
	ErrDocOrder     = errors.New("collection: documents must be added in ascending id order starting at 0")
	ErrFinished     = errors.New("collection: builder already finished")
	ErrNotFinished  = errors.New("collection: builder not finished")
	ErrNoSuchDoc    = errors.New("collection: no such document")
	ErrDuplicateDoc = errors.New("collection: duplicate document id")
)

// Stats holds the collection statistics the paper's cost formulas consume.
type Stats struct {
	// N is the number of documents.
	N int64
	// T is the number of distinct terms.
	T int64
	// K is the average number of terms in a document.
	K float64
	// TotalCells is Σ over documents of the number of d-cells (N·K).
	TotalCells int64
	// Bytes is the tightly packed size in bytes.
	Bytes int64
	// S is the average size of a document in pages.
	S float64
	// D is the size of the collection in pages (the file size).
	D int64
	// PageSize is the page size the sizes are expressed in.
	PageSize int
}

// DocRef locates one packed document inside the collection file.
type DocRef struct {
	// Off is the byte offset of the document record.
	Off int64
	// Len is the packed length in bytes.
	Len int32
	// Terms is the number of distinct terms (d-cells) in the document.
	Terms int32
}

// Collection is an immutable, fully built document collection.
//
// Its term tables are slices indexed by term number, which assumes what a
// dictionary guarantees: term numbers are dense from 0 (termmap numbers
// them so), so a table is as long as the largest term number plus one.
type Collection struct {
	name  string
	file  *iosim.File
	refs  []DocRef
	stats Stats
	// df[t] is term t's document frequency, 0 when t is absent; 4 bytes
	// suffice because N is below 2^24 (codec.MaxNumber).
	df    []uint32
	norms []float64
	// largest is the longest record's packed bytes and the most cells a
	// record holds: what a scanner's stitch window and arena document
	// need (Scanner.Reset).
	largest DocRef

	// der holds the lazily built derived tables behind a pointer shared
	// by every view-bound copy of the collection, so WithView can return
	// a shallow copy (no sync.Once is ever copied) and the O(N)/O(T)
	// tables are still built exactly once per collection.
	der *derived
}

// derived memoizes tables built once on first use and shared afterwards.
type derived struct {
	idfOnce, recipOnce sync.Once
	idf, recip         []float64
}

// Builder accumulates documents into a collection file. Documents must be
// added in ascending id order starting at 0 (the paper's document numbers
// are dense within a collection).
type Builder struct {
	name     string
	file     *iosim.File
	w        *iosim.Writer
	refs     []DocRef
	df       []uint32
	norms    []float64
	cells    int64
	finished bool
	buf      []byte
	// rec holds the record cells of the document being added.
	rec []codec.Cell
}

// NewBuilder starts building a collection named name in the given empty
// file.
func NewBuilder(name string, file *iosim.File) (*Builder, error) {
	if file.Pages() != 0 {
		return nil, fmt.Errorf("collection: build target %q is not empty", file.Name())
	}
	return &Builder{
		name: name,
		file: file,
		w:    file.Writer(),
	}, nil
}

// countTerms adds one document's terms to the document-frequency table df,
// growing it to cover them.
func countTerms(df []uint32, cells []document.Cell) []uint32 {
	for _, c := range cells {
		if int(c.Term) >= len(df) {
			df = append(df, make([]uint32, int(c.Term)+1-len(df))...)
		}
		df[c.Term]++
	}
	return df
}

// distinctTerms returns T, the number of terms df counts.
func distinctTerms(df []uint32) int64 {
	var t int64
	for _, n := range df {
		if n != 0 {
			t++
		}
	}
	return t
}

// Add appends one document. The document id must equal the number of
// documents added so far. Add keeps nothing of d, so a caller may reuse it.
func (b *Builder) Add(d *document.Document) error {
	if b.finished {
		return ErrFinished
	}
	if d.ID != uint32(len(b.refs)) {
		return fmt.Errorf("%w: got id %d, want %d", ErrDocOrder, d.ID, len(b.refs))
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("collection: %v", err)
	}
	b.rec = b.rec[:0]
	for _, c := range d.Cells {
		b.rec = append(b.rec, codec.Cell{Number: c.Term, Weight: c.Weight})
	}
	var err error
	b.buf, err = codec.AppendRecord(b.buf[:0], codec.Record{Number: d.ID, Cells: b.rec})
	if err != nil {
		return err
	}
	off := b.w.Offset()
	if _, err := b.w.Write(b.buf); err != nil {
		return err
	}
	b.refs = append(b.refs, DocRef{Off: off, Len: int32(len(b.buf)), Terms: int32(len(d.Cells))})
	b.df = countTerms(b.df, d.Cells)
	b.norms = append(b.norms, d.Norm())
	b.cells += int64(len(d.Cells))
	return nil
}

// Finish flushes the file and returns the immutable collection.
func (b *Builder) Finish() (*Collection, error) {
	if b.finished {
		return nil, ErrFinished
	}
	b.finished = true
	if err := b.w.Flush(); err != nil {
		return nil, err
	}
	n := int64(len(b.refs))
	stats := Stats{
		N:          n,
		T:          distinctTerms(b.df),
		TotalCells: b.cells,
		Bytes:      b.w.Offset(),
		D:          b.file.Pages(),
		PageSize:   b.file.PageSize(),
	}
	if n > 0 {
		stats.K = float64(b.cells) / float64(n)
		stats.S = float64(stats.Bytes) / float64(n) / float64(stats.PageSize)
	}
	return &Collection{
		name:    b.name,
		file:    b.file,
		refs:    b.refs,
		stats:   stats,
		df:      b.df,
		norms:   b.norms,
		largest: largestRecord(b.refs),
		der:     &derived{},
	}, nil
}

// largestRecord returns the most bytes and the most cells any record of
// refs holds.
func largestRecord(refs []DocRef) DocRef {
	var l DocRef
	for _, r := range refs {
		l.Len, l.Terms = max(l.Len, r.Len), max(l.Terms, r.Terms)
	}
	return l
}

// Open re-attaches to a collection file written earlier (e.g. restored
// from a disk snapshot), rebuilding the in-memory directory, document
// frequencies and norms with one sequential scan of expectedDocs packed
// records. The scan is charged like any other statistics-collection pass;
// callers that only want join-time I/O should reset the disk statistics
// afterwards.
func Open(name string, file *iosim.File, expectedDocs int64) (*Collection, error) {
	c := &Collection{
		name:  name,
		file:  file,
		stats: Stats{PageSize: file.PageSize()},
		der:   &derived{},
	}
	st := file.Stream()
	var d document.Document
	var off int64
	for id := int64(0); id < expectedDocs; id++ {
		hdr, err := st.Peek(codec.DocHeaderSize)
		if err != nil {
			return nil, fmt.Errorf("collection %s: doc %d: %w", name, id, err)
		}
		size, err := codec.PeekRecordSize(hdr)
		if err != nil {
			return nil, fmt.Errorf("collection %s: doc %d: %w", name, id, err)
		}
		raw, err := st.Next(int(size))
		if err != nil {
			return nil, fmt.Errorf("collection %s: doc %d: %w", name, id, err)
		}
		if _, err := document.DecodeInto(&d, raw); err != nil {
			return nil, fmt.Errorf("collection %s: doc %d: %w", name, id, err)
		}
		if int64(d.ID) != id {
			return nil, fmt.Errorf("collection %s: record %d has id %d (not a collection file?)", name, id, d.ID)
		}
		c.refs = append(c.refs, DocRef{Off: off, Len: int32(size), Terms: int32(len(d.Cells))})
		c.df = countTerms(c.df, d.Cells)
		c.norms = append(c.norms, d.Norm())
		c.stats.TotalCells += int64(len(d.Cells))
		off += size
	}
	c.largest = largestRecord(c.refs)
	c.stats.N = expectedDocs
	c.stats.T = distinctTerms(c.df)
	c.stats.Bytes = off
	c.stats.D = file.Pages()
	if expectedDocs > 0 {
		c.stats.K = float64(c.stats.TotalCells) / float64(expectedDocs)
		c.stats.S = float64(off) / float64(expectedDocs) / float64(c.stats.PageSize)
	}
	return c, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Stats returns the measured collection statistics.
func (c *Collection) Stats() Stats { return c.stats }

// NumDocs returns N.
func (c *Collection) NumDocs() int64 { return c.stats.N }

// File exposes the underlying file (for I/O accounting in tests and for
// the inverted-file builder).
func (c *Collection) File() *iosim.File { return c.file }

// Ref returns the storage reference of document id.
func (c *Collection) Ref(id uint32) (DocRef, error) {
	if int(id) >= len(c.refs) {
		return DocRef{}, fmt.Errorf("%w: %d of %d", ErrNoSuchDoc, id, len(c.refs))
	}
	return c.refs[id], nil
}

// DF returns the document frequency of term (paper: "the frequency of a
// term in a collection [is] the number of documents containing the term").
func (c *Collection) DF(term uint32) int64 {
	if int(term) >= len(c.df) {
		return 0
	}
	return int64(c.df[term])
}

// TermSpan is the length of a table indexed by its term numbers.
func (c *Collection) TermSpan() int64 { return int64(len(c.df)) }

// HasTerm reports whether term occurs anywhere in the collection.
func (c *Collection) HasTerm(term uint32) bool { return c.DF(term) > 0 }

// Terms returns all distinct terms in ascending order.
func (c *Collection) Terms() []uint32 {
	terms := make([]uint32, 0, c.stats.T)
	for t, n := range c.df {
		if n != 0 {
			terms = append(terms, uint32(t))
		}
	}
	return terms
}

// Norm returns the pre-computed Euclidean norm of document id, 0 when the
// id is out of range.
func (c *Collection) Norm(id uint32) float64 {
	if int(id) >= len(c.norms) {
		return 0
	}
	return c.norms[id]
}

// Norms returns every document's pre-computed norm, indexed by id, which
// is also its rank (Reader interface): non-nil, even for an empty
// collection, since a nil table means "no norms" to document.NewScorer.
// Callers must not modify it.
func (c *Collection) Norms() []float64 {
	if c.norms == nil {
		return []float64{}
	}
	return c.norms
}

// Reciprocals returns 1/‖d‖ for every document d, indexed by id, and 0
// for a document whose norm is 0: the factors a cosine drain bounds a
// row's similarities with, one multiplication per id where the similarity
// itself takes a division (DESIGN §6). The table is computed once, beside
// the norms, and the same slice is returned on every call; callers must
// not modify it.
func (c *Collection) Reciprocals() []float64 {
	c.der.recipOnce.Do(func() {
		recip := make([]float64, len(c.norms))
		for id, n := range c.norms {
			if n != 0 {
				recip[id] = 1 / n
			}
		}
		c.der.recip = recip
	})
	return c.der.recip
}

// IDF returns every term's idf weight, indexed by term number and 0 for a
// term the collection lacks, for tf-idf scoring. The table is computed once
// and the same slice is returned on every call; callers must not modify it.
func (c *Collection) IDF() []float64 {
	c.der.idfOnce.Do(func() {
		idf := make([]float64, len(c.df))
		for term, df := range c.df {
			idf[term] = document.IDF(c.stats.N, int64(df))
		}
		c.der.idf = idf
	})
	return c.der.idf
}

// Fetch reads document id with a random access, touching the ⌈S⌉-ish pages
// the record spans, into a new document.
func (c *Collection) Fetch(id uint32) (*document.Document, error) {
	d := &document.Document{}
	if _, err := c.FetchInto(id, d, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// FetchInto is Fetch decoding into d, reusing its cells. A record inside
// one page is decoded straight out of the page image; one that crosses a
// page is stitched into scratch, which is returned, grown, for the next
// call — so a fetch loop that keeps both allocates nothing once they have
// grown. It reads exactly the pages Fetch does.
func (c *Collection) FetchInto(id uint32, d *document.Document, scratch []byte) ([]byte, error) {
	ref, err := c.Ref(id)
	if err != nil {
		return scratch, err
	}
	off, length := ref.Off, int64(ref.Len)
	if iosim.SpannedPages(off, length, c.file.PageSize()) > 1 {
		scratch = slices.Grow(scratch[:0], int(length))
	}
	raw, err := c.file.ReadSpan(off, length, scratch)
	if err != nil {
		return scratch, err
	}
	_, err = document.DecodeInto(d, raw)
	return scratch, err
}

// Scanner iterates documents in storage order through one iosim.Stream,
// decoding each record straight out of the page image unless it crosses
// a page. Scan reads every page of the collection exactly once (the
// paper's sequential scan costing D pages). ScanFiltered decodes only the
// documents its keep predicate reports true for and reads only the pages
// they span: it is the storage half of the signature prefilter and of
// LSH's verify scan, where a skip saves real page reads and resuming
// after a gap costs one random read, like any seek.
type Scanner struct {
	c      *Collection
	stream iosim.Stream
	keep   func(id uint32) bool // nil keeps every document
	doc    document.Document    // arena for NextReuse
	next   int                  // next document id to consider
	err    error
}

// Scan starts a sequential scan from the first document.
func (c *Collection) Scan() *Scanner { return c.ScanFiltered(nil) }

// ScanFiltered starts a storage-order scan that yields only the
// documents keep reports true for; a nil keep yields every document.
func (c *Collection) ScanFiltered(keep func(id uint32) bool) *Scanner {
	s := &Scanner{}
	s.Reset(c, keep)
	return s
}

// Reset restarts s as c.ScanFiltered(keep) would, keeping its buffers:
// the stream's stitch window and the arena document's cells hold c's
// largest record, so no scan of c grows them. A nil c detaches s from
// its collection, its file and keep.
func (s *Scanner) Reset(c *Collection, keep func(id uint32) bool) {
	var f *iosim.File
	var l DocRef
	if c != nil {
		f, l = c.file, c.largest
	}
	s.stream.Reset(f, int(l.Len))
	s.c, s.keep, s.next, s.err = c, keep, 0, nil
	s.doc = document.Document{Cells: slices.Grow(s.doc.Cells[:0], int(l.Terms))}
}

// NextReuse returns the next (kept) document, or io.EOF when the scan is
// complete. The returned document lives in the scanner's arena: it is
// valid only until the next call, and callers that retain it must Clone
// it. The steady state allocates nothing.
func (s *Scanner) NextReuse() (*document.Document, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.keep != nil && s.next < len(s.c.refs) && !s.keep(uint32(s.next)) {
		s.next++
	}
	if s.next >= len(s.c.refs) {
		s.err = io.EOF
		return nil, io.EOF
	}
	ref := s.c.refs[s.next]
	s.next++
	s.stream.SkipTo(ref.Off)
	raw, err := s.stream.Next(int(ref.Len))
	if err == nil {
		_, err = document.DecodeInto(&s.doc, raw)
	}
	if err != nil {
		s.err = err
		return nil, err
	}
	return &s.doc, nil
}

// Next returns the next document, or io.EOF when the scan is complete. The
// document is freshly allocated and safe to retain; hot paths that only
// inspect each document should prefer NextReuse.
func (s *Scanner) Next() (*document.Document, error) {
	d, err := s.NextReuse()
	if err != nil {
		return nil, err
	}
	return d.Clone(), nil
}

// Reader abstracts the document sources a join can consume: a full
// collection (sequential scan), a selection subset (random fetches) or a
// memory-resident query batch (no storage at all).
type Reader interface {
	// Name identifies the source for diagnostics.
	Name() string
	// NumDocs returns the number of documents the source yields.
	NumDocs() int64
	// DocSize returns the packed bytes and the cell count of the i-th
	// document Documents yields, 0 ≤ i < NumDocs(), without reading a
	// page.
	DocSize(i int) (bytes int64, cells int)
	// Documents starts a new iteration over the source's documents.
	Documents() DocIterator
	// Base returns the underlying collection, or nil for sources that
	// are not backed by one (memory-resident batches).
	Base() *Collection
	// File returns the backing storage file, or nil when the source is
	// memory-resident.
	File() *iosim.File
	// DF returns the document frequency of term over the source's
	// universe (the base collection for subsets; the batch itself for
	// memory batches).
	DF(term uint32) int64
	// Terms returns the distinct terms of the source's universe in
	// ascending order.
	Terms() []uint32
	// Norms returns the pre-computed norm of every document by rank: the
	// i-th entry is the norm of the i-th document Documents yields. It is
	// non-nil, and built at most once per source.
	Norms() []float64
	// BaseStats returns the statistics governing the source's storage
	// costs (zero sizes for memory-resident sources).
	BaseStats() Stats
}

// DocIterator yields documents until io.EOF. A document returned by
// NextReuse lives in the iterator's arena: it is valid only until the
// next call (of either method), callers that retain it must Clone it,
// and none may mutate it. Memory-resident sources may return stable
// documents from NextReuse; callers must not assume so. Documents
// returned by Next are stable: they remain valid after further calls.
type DocIterator interface {
	Next() (*document.Document, error)
	NextReuse() (*document.Document, error)
}

// Cursor is one reusable iteration over any Reader, for a caller that
// sweeps a reader per task and keeps the cursor between tasks: Documents
// restarts it over the reader in the buffers its last sweep of that kind
// grew, so a sweep of a reader no larger than one swept before allocates
// nothing. Its zero value is ready to use.
type Cursor struct {
	scan  Scanner
	sub   subsetIterator
	batch batchIterator
}

// Documents starts a new iteration over r, as r.Documents() does. The
// iterator is the cursor's: it is valid until the next Documents or Reset.
func (c *Cursor) Documents(r Reader) DocIterator {
	switch r := r.(type) {
	case *Collection:
		c.scan.Reset(r, nil)
		return &c.scan
	case *Subset:
		c.sub.s, c.sub.next = r, 0
		return &c.sub
	case *Batch:
		c.batch = batchIterator{b: r}
		return &c.batch
	}
	return r.Documents()
}

// Reset drops the cursor's reader, keeping its buffers.
func (c *Cursor) Reset() {
	c.scan.Reset(nil, nil)
	c.sub.s = nil
	c.batch = batchIterator{}
}

// Collection implements Reader over all its documents.
var _ Reader = (*Collection)(nil)

// DocSize returns document i's packed bytes and cell count from the
// directory (Reader interface).
func (c *Collection) DocSize(i int) (int64, int) { return int64(c.refs[i].Len), int(c.refs[i].Terms) }

// Documents starts a sequential scan (Reader interface).
func (c *Collection) Documents() DocIterator { return c.Scan() }

// Base returns the collection itself (Reader interface).
func (c *Collection) Base() *Collection { return c }

// BaseStats returns the collection's statistics (Reader interface).
func (c *Collection) BaseStats() Stats { return c.stats }

// Subset is a selection result: the documents of a collection whose ids
// are listed, read in id order by random fetches. It models the paper's
// Group 3 scenario, where "documents in C2 need to be read in randomly"
// because the surviving documents of a large collection are scattered.
type Subset struct {
	c   *Collection
	ids []uint32

	// der memoizes derived statistics behind a pointer shared by every
	// view-bound copy: a subset is immutable, so the per-call
	// O(len(ids)) directory walks are paid once.
	der *subsetDerived
}

type subsetDerived struct {
	statsOnce sync.Once
	stats     Stats
	normOnce  sync.Once
	norms     []float64
}

var _ Reader = (*Subset)(nil)

// Subset creates a selection over the given document ids. The ids are
// sorted and deduplicated; unknown ids are rejected.
func (c *Collection) Subset(ids []uint32) (*Subset, error) {
	sorted := make([]uint32, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:0]
	var prev int64 = -1
	for _, id := range sorted {
		if int(id) >= len(c.refs) {
			return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchDoc, id, len(c.refs))
		}
		if int64(id) != prev {
			out = append(out, id)
		}
		prev = int64(id)
	}
	return &Subset{c: c, ids: out, der: &subsetDerived{}}, nil
}

// Name identifies the subset.
func (s *Subset) Name() string { return fmt.Sprintf("%s[%d docs]", s.c.name, len(s.ids)) }

// NumDocs returns the number of selected documents.
func (s *Subset) NumDocs() int64 { return int64(len(s.ids)) }

// IDs returns the selected document ids in ascending order; callers must
// not modify the slice.
func (s *Subset) IDs() []uint32 { return s.ids }

// Base returns the underlying collection.
func (s *Subset) Base() *Collection { return s.c }

// File returns the underlying collection's file (Reader interface).
func (s *Subset) File() *iosim.File { return s.c.file }

// DF returns the document frequency of term in the base collection: an IR
// system keeps the full table regardless of selections.
func (s *Subset) DF(term uint32) int64 { return s.c.DF(term) }

// Norms returns the selected documents' norms by rank, from the base
// collection's table, built on first use.
func (s *Subset) Norms() []float64 {
	s.der.normOnce.Do(func() {
		base := s.c.Norms()
		s.der.norms = make([]float64, len(s.ids))
		for i, id := range s.ids {
			s.der.norms[i] = base[id]
		}
	})
	return s.der.norms
}

// Terms returns the base collection's distinct terms.
func (s *Subset) Terms() []uint32 { return s.c.Terms() }

// BaseStats returns the base collection's statistics (Reader interface):
// storage costs are governed by the original, originally large file.
func (s *Subset) BaseStats() Stats { return s.c.stats }

// DocSize returns the i-th selected document's packed bytes and cell
// count from the base collection's directory (Reader interface).
func (s *Subset) DocSize(i int) (bytes int64, cells int) { return s.c.DocSize(int(s.ids[i])) }

// Stats estimates the statistics of the subset viewed as a collection of
// its own: N and K are measured from the document directory (no I/O), and
// the number of distinct terms is estimated with the paper's vocabulary
// growth formula f(m) = T·(1 − (1 − K/T)^m). The walk over the directory
// happens once; repeat calls return the memoized value.
func (s *Subset) Stats() Stats {
	s.der.statsOnce.Do(func() {
		parent := s.c.stats
		st := Stats{N: int64(len(s.ids)), PageSize: parent.PageSize}
		if st.N == 0 {
			s.der.stats = st
			return
		}
		var cells int64
		var bytes int64
		for _, id := range s.ids {
			cells += int64(s.c.refs[id].Terms)
			bytes += int64(s.c.refs[id].Len)
		}
		st.TotalCells = cells
		st.Bytes = bytes
		st.K = float64(cells) / float64(st.N)
		st.S = float64(bytes) / float64(st.N) / float64(st.PageSize)
		st.D = iosim.PagesForBytes(bytes, st.PageSize)
		st.T = int64(math.Round(VocabularyGrowth(float64(parent.T), parent.K, float64(st.N))))
		s.der.stats = st
	})
	return s.der.stats
}

// Documents iterates the selected documents in id order via random
// fetches.
func (s *Subset) Documents() DocIterator {
	return &subsetIterator{s: s}
}

type subsetIterator struct {
	s       *Subset
	next    int
	doc     document.Document // arena for NextReuse
	scratch []byte            // stitches a record that crosses a page
}

// NextReuse fetches the next selected document into the iterator's one
// arena document, through one kept scratch buffer (Collection.FetchInto):
// an HVNL sweep over a selection allocates nothing per document.
func (it *subsetIterator) NextReuse() (*document.Document, error) {
	if it.next >= len(it.s.ids) {
		return nil, io.EOF
	}
	id := it.s.ids[it.next]
	it.next++
	var err error
	if it.scratch, err = it.s.c.FetchInto(id, &it.doc, it.scratch); err != nil {
		return nil, err
	}
	// Park the head so the next fetch is again charged as random: the
	// selected documents are scattered through an originally large file
	// and the device is assumed to serve other requests in between.
	it.s.c.file.ParkHead()
	return &it.doc, nil
}

func (it *subsetIterator) Next() (*document.Document, error) {
	d, err := it.NextReuse()
	if err != nil {
		return nil, err
	}
	return d.Clone(), nil
}

// VocabularyGrowth is the paper's estimate of the number of distinct terms
// in m documents of a collection with T distinct terms and K terms per
// document: f(m) = T − (1 − K/T)^m · T.
func VocabularyGrowth(t, k, m float64) float64 {
	if t <= 0 || m <= 0 {
		return 0
	}
	frac := 1 - k/t
	if frac < 0 {
		frac = 0
	}
	return t - math.Pow(frac, m)*t
}

// Materialize copies the documents of src (in iteration order) into a new
// collection with dense ids 0..n−1 on the given file, returning the new
// collection and the mapping from new id to original id. This models the
// paper's Group 4 setting: an ORIGINALLY small collection, stored
// contiguously and read sequentially, whose inverted file and B+tree are
// sized by the small collection itself.
func Materialize(name string, file *iosim.File, src Reader) (*Collection, []uint32, error) {
	b, err := NewBuilder(name, file)
	if err != nil {
		return nil, nil, err
	}
	var origIDs []uint32
	it := src.Documents()
	for {
		d, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		origIDs = append(origIDs, d.ID)
		nd := &document.Document{ID: uint32(len(origIDs) - 1), Cells: d.Cells}
		if err := b.Add(nd); err != nil {
			return nil, nil, err
		}
	}
	c, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return c, origIDs, nil
}
