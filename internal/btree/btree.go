// Package btree implements the disk-resident B+tree that accompanies each
// inverted file.
//
// The paper: "For each inverted file, there is a B+tree which is used to
// find whether a term is in the collection and if present where the
// corresponding inverted file entry is located. ... Typically, each cell in
// the B+tree occupies 9 bytes (3 for each term number, 4 for address and 2
// for document frequency)." The paper's size estimate 9·T/P counts only the
// leaf level; this implementation lays the leaves out first so that the
// leaf region matches that estimate, with the (much smaller) internal
// levels appended after it.
//
// The tree is bulk-loaded once from the sorted term list produced by the
// inverted file builder and is immutable afterwards, matching the paper's
// static-collection setting. Both access paths of the paper are provided:
// point Search descending from the root (random page reads) and LoadAll,
// which scans the leaf region sequentially into an in-memory index (the
// paper assumes "the entire B+tree will be read in the memory when the
// inverted file needs to be accessed").
package btree

import (
	"errors"
	"fmt"
	"sort"

	"textjoin/internal/codec"
	"textjoin/internal/iosim"
)

// Page layout constants.
const (
	magic       = 0x42545245 // "BTRE"
	version     = 1
	nodeHeader  = 3 // [type:1][cellCount:2]
	leafType    = 1
	innerType   = 2
	innerCell   = codec.TermNumberSize + 4 // separator term + child page
	metaMinSize = 4 + 1 + 4*4
)

// Errors returned by the package.
var (
	ErrNotFound   = errors.New("btree: term not found")
	ErrCorrupt    = errors.New("btree: corrupt tree")
	ErrEmptyBuild = errors.New("btree: cannot build an empty tree")
)

// BTree is a handle to a bulk-loaded tree stored in an iosim file.
type BTree struct {
	file      *iosim.File
	rootPage  int64
	height    int   // number of levels, 1 = root is a leaf
	leafCount int64 // leaves occupy pages [1, leafCount]
	cellCount int64
}

// Build bulk-loads a tree from cells sorted by strictly ascending term into
// the given (empty) file.
func Build(file *iosim.File, cells []codec.BTreeCell) (*BTree, error) {
	if len(cells) == 0 {
		return nil, ErrEmptyBuild
	}
	if file.Pages() != 0 {
		return nil, fmt.Errorf("btree: build target %q is not empty", file.Name())
	}
	prev := int64(-1)
	for i, c := range cells {
		if int64(c.Term) <= prev {
			return nil, fmt.Errorf("%w: cells not strictly ascending at %d", ErrCorrupt, i)
		}
		prev = int64(c.Term)
	}
	pageSize := file.PageSize()
	leafCap := (pageSize - nodeHeader) / codec.BTreeCellSize
	innerCap := (pageSize - nodeHeader) / innerCell
	if leafCap < 1 || innerCap < 2 {
		return nil, fmt.Errorf("btree: page size %d too small", pageSize)
	}

	// Reserve page 0 for metadata; it is rewritten at the end.
	if _, err := file.AppendPage(nil); err != nil {
		return nil, err
	}

	// Level 0: leaves.
	type childRef struct {
		firstTerm uint32
		page      int64
	}
	var level []childRef
	for start := 0; start < len(cells); start += leafCap {
		end := start + leafCap
		if end > len(cells) {
			end = len(cells)
		}
		page := make([]byte, nodeHeader, pageSize)
		page[0] = leafType
		codec.PutUint16(page[1:], uint16(end-start))
		for _, c := range cells[start:end] {
			var err error
			page, err = codec.AppendBTreeCell(page, c)
			if err != nil {
				return nil, err
			}
		}
		idx, err := file.AppendPage(page)
		if err != nil {
			return nil, err
		}
		level = append(level, childRef{firstTerm: cells[start].Term, page: idx})
	}
	leafCount := int64(len(level))

	// Internal levels, bottom-up, until one root remains.
	height := 1
	for len(level) > 1 {
		var next []childRef
		for start := 0; start < len(level); start += innerCap {
			end := start + innerCap
			if end > len(level) {
				end = len(level)
			}
			page := make([]byte, nodeHeader, pageSize)
			page[0] = innerType
			codec.PutUint16(page[1:], uint16(end-start))
			for _, ref := range level[start:end] {
				var cell [innerCell]byte
				codec.PutUint24(cell[:], ref.firstTerm)
				codec.PutUint32(cell[codec.TermNumberSize:], uint32(ref.page))
				page = append(page, cell[:]...)
			}
			idx, err := file.AppendPage(page)
			if err != nil {
				return nil, err
			}
			next = append(next, childRef{firstTerm: level[start].firstTerm, page: idx})
		}
		level = next
		height++
	}

	t := &BTree{
		file:      file,
		rootPage:  level[0].page,
		height:    height,
		leafCount: leafCount,
		cellCount: int64(len(cells)),
	}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *BTree) writeMeta() error {
	buf := make([]byte, metaMinSize)
	codec.PutUint32(buf, magic)
	buf[4] = version
	codec.PutUint32(buf[5:], uint32(t.rootPage))
	codec.PutUint32(buf[9:], uint32(t.height))
	codec.PutUint32(buf[13:], uint32(t.leafCount))
	codec.PutUint32(buf[17:], uint32(t.cellCount))
	return t.file.WritePage(0, buf)
}

// Open attaches to a previously built tree. It reads the meta page (one
// random I/O).
func Open(file *iosim.File) (*BTree, error) {
	page, err := file.ReadPage(0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(page) < metaMinSize || codec.Uint32(page) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if page[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, page[4])
	}
	return &BTree{
		file:      file,
		rootPage:  int64(codec.Uint32(page[5:])),
		height:    int(codec.Uint32(page[9:])),
		leafCount: int64(codec.Uint32(page[13:])),
		cellCount: int64(codec.Uint32(page[17:])),
	}, nil
}

// Height returns the number of levels (1 when the root is a leaf).
func (t *BTree) Height() int { return t.height }

// File returns the iosim file backing the tree.
func (t *BTree) File() *iosim.File { return t.file }

// Cells returns the number of indexed terms.
func (t *BTree) Cells() int64 { return t.cellCount }

// LeafPages returns the number of leaf pages: the paper's B+tree size
// Bt = ⌈9·T/P⌉ counts exactly these.
func (t *BTree) LeafPages() int64 { return t.leafCount }

// TotalPages returns the full file size in pages including meta page and
// internal levels.
func (t *BTree) TotalPages() int64 { return t.file.Pages() }

// Search descends from the root to locate term, costing one page read per
// level. It returns ErrNotFound for absent terms.
func (t *BTree) Search(term uint32) (codec.BTreeCell, error) {
	pageIdx := t.rootPage
	for {
		page, err := t.file.ReadPage(pageIdx)
		if err != nil {
			return codec.BTreeCell{}, err
		}
		count := int(codec.Uint16(page[1:]))
		switch page[0] {
		case leafType:
			cells := page[nodeHeader:]
			i := sort.Search(count, func(i int) bool {
				return codec.Uint24(cells[i*codec.BTreeCellSize:]) >= term
			})
			if i < count {
				c, err := codec.DecodeBTreeCell(cells[i*codec.BTreeCellSize:])
				if err != nil {
					return codec.BTreeCell{}, err
				}
				if c.Term == term {
					return c, nil
				}
			}
			return codec.BTreeCell{}, fmt.Errorf("%w: term %d", ErrNotFound, term)
		case innerType:
			cells := page[nodeHeader:]
			// Find the last child whose separator is <= term.
			i := sort.Search(count, func(i int) bool {
				return codec.Uint24(cells[i*innerCell:]) > term
			})
			if i == 0 {
				// term is below the smallest key in the tree.
				return codec.BTreeCell{}, fmt.Errorf("%w: term %d", ErrNotFound, term)
			}
			pageIdx = int64(codec.Uint32(cells[(i-1)*innerCell+codec.TermNumberSize:]))
		default:
			return codec.BTreeCell{}, fmt.Errorf("%w: unknown node type %d", ErrCorrupt, page[0])
		}
	}
}

// Contains reports whether term is indexed.
func (t *BTree) Contains(term uint32) (bool, error) {
	_, err := t.Search(term)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return false, err
}

// Scan invokes fn for every indexed cell in ascending term order, reading
// the leaf region sequentially. Returning a non-nil error from fn stops the
// scan and propagates the error.
func (t *BTree) Scan(fn func(codec.BTreeCell) error) error {
	for p := int64(1); p <= t.leafCount; p++ {
		page, err := t.file.ReadPage(p)
		if err != nil {
			return err
		}
		if page[0] != leafType {
			return fmt.Errorf("%w: page %d is not a leaf", ErrCorrupt, p)
		}
		count := int(codec.Uint16(page[1:]))
		cells := page[nodeHeader:]
		for i := 0; i < count; i++ {
			c, err := codec.DecodeBTreeCell(cells[i*codec.BTreeCellSize:])
			if err != nil {
				return err
			}
			if err := fn(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// MemIndex is the in-memory image of a B+tree: the paper's algorithms load
// the whole tree before probing the inverted file, which then "decides for
// free whether a term appears".
type MemIndex struct {
	cells []codec.BTreeCell
	// pos[t] is one more than term t's position in cells, 0 when t is
	// absent. Term numbers are dense (a dictionary numbers terms from 0),
	// so a lookup is one slice read; cells stays sorted for ordered walks.
	pos []int32
}

// LoadAll reads the leaf region sequentially (the paper's one-time cost of
// Bt page reads) and returns the in-memory index.
func (t *BTree) LoadAll() (*MemIndex, error) {
	cells := make([]codec.BTreeCell, 0, t.cellCount)
	err := t.Scan(func(c codec.BTreeCell) error {
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NewMemIndex(cells), nil
}

// NewMemIndex builds an index directly from sorted cells without touching
// storage (used by builders that already hold the term list).
func NewMemIndex(cells []codec.BTreeCell) *MemIndex {
	var top uint32
	for _, c := range cells {
		top = max(top, c.Term+1)
	}
	idx := &MemIndex{cells: cells, pos: make([]int32, top)}
	for i, c := range cells {
		idx.pos[c.Term] = int32(i + 1)
	}
	return idx
}

// Pos returns term's position in Cells, if present.
func (m *MemIndex) Pos(term uint32) (int, bool) {
	if int(term) >= len(m.pos) {
		return 0, false
	}
	p := int(m.pos[term])
	return p - 1, p != 0
}

// Lookup returns the cell for term, if present.
func (m *MemIndex) Lookup(term uint32) (codec.BTreeCell, bool) {
	i, ok := m.Pos(term)
	if !ok {
		return codec.BTreeCell{}, false
	}
	return m.cells[i], true
}

// Contains reports whether term is indexed.
func (m *MemIndex) Contains(term uint32) bool {
	return int(term) < len(m.pos) && m.pos[term] != 0
}

// Len returns the number of indexed terms.
func (m *MemIndex) Len() int { return len(m.cells) }

// Cells returns the sorted cells; callers must not modify the slice.
func (m *MemIndex) Cells() []codec.BTreeCell { return m.cells }

// SizePages returns the paper's estimate of the B+tree's memory footprint
// in pages: ⌈9·T/P⌉.
func (m *MemIndex) SizePages(pageSize int) int64 {
	return iosim.PagesForBytes(int64(len(m.cells))*codec.BTreeCellSize, pageSize)
}
