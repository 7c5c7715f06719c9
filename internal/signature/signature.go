// Package signature implements fixed-width superimposed-code term
// signatures for the exact joins' pre-filter: per-document bit vectors
// where every term sets k hashed bits, persisted as a sidecar file on
// the iosim disk alongside per-page and per-cluster aggregates (the OR
// of the member documents' signatures).
//
// The single invariant the joins rely on: a zero AND between two
// signatures proves the underlying term sets are disjoint, so the pair's
// similarity is exactly zero and the pair (or the whole page / cluster
// behind an aggregate) can be skipped without decoding anything.
// Signatures may only skip, never admit — a nonzero AND says nothing and
// the pair proceeds to the normal exact path, which is why prefiltered
// joins return byte-identical results.
//
// Terms are quantized into buckets of Granularity consecutive term
// numbers before hashing. The collection dictionary assigns ascending
// numbers to a sorted vocabulary, and the clustered build path
// (cluster.Clustered) co-locates documents that share terms, so topical
// documents occupy narrow term ranges; coarse buckets let a small
// signature keep aggregate (page/cluster) tests selective instead of
// saturating. Granularity 1 is the classic per-term code.
package signature

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// Defaults for Config's zero values.
const (
	DefaultBits        = 1024
	DefaultHashes      = 2
	DefaultGranularity = 1
	DefaultClusterDocs = 16
)

// Sidecar file layout constants.
const (
	magic   = 0x544a5347 // "TJSG"
	version = 1
	// headerSize is the fixed serialized header: magic, version, bits,
	// hashes, granularity, clusterDocs (uint32 each) then numDocs,
	// numPages, numClusters (int64 each).
	headerSize = 6*4 + 3*8
)

// Config sets the code's shape. The zero value selects the defaults
// above.
type Config struct {
	// Bits is the signature width in bits; rounded up to a multiple of
	// 64.
	Bits int
	// Hashes is k, the number of bits each (bucketed) term sets.
	Hashes int
	// Granularity is the number of consecutive term numbers that share
	// one hash bucket.
	Granularity int
	// ClusterDocs is the number of consecutive document ids aggregated
	// into one cluster signature.
	ClusterDocs int
}

func (c Config) withDefaults() Config {
	if c.Bits <= 0 {
		c.Bits = DefaultBits
	}
	c.Bits = (c.Bits + 63) &^ 63
	if c.Hashes <= 0 {
		c.Hashes = DefaultHashes
	}
	if c.Granularity <= 0 {
		c.Granularity = DefaultGranularity
	}
	if c.ClusterDocs <= 0 {
		c.ClusterDocs = DefaultClusterDocs
	}
	return c
}

// Words is the signature width in 64-bit words.
func (c Config) Words() int { return c.withDefaults().Bits / 64 }

// Sig is one signature: Words() 64-bit words.
type Sig []uint64

// New returns an all-zero signature of the configured width.
func (c Config) New() Sig { return make(Sig, c.Words()) }

// Add sets term's k hashed bits in s. s must have the configured width.
func (c Config) Add(s Sig, term uint32) {
	c = c.withDefaults()
	bits := uint64(c.Bits)
	// Quantize, then derive k bits from a splitmix64-style sequence so
	// the code is deterministic across runs and platforms.
	x := uint64(term / uint32(c.Granularity))
	for i := 0; i < c.Hashes; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		bit := z % bits
		s[bit>>6] |= 1 << (bit & 63)
	}
}

// FromDoc ORs every term of d into s and returns s (allocating when s is
// nil or mis-sized).
func (c Config) FromDoc(s Sig, d *document.Document) Sig {
	if len(s) != c.Words() {
		s = c.New()
	}
	for _, cell := range d.Cells {
		c.Add(s, cell.Term)
	}
	return s
}

// Zero reports whether no bit of s is set (an empty term set).
func Zero(s Sig) bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Overlaps reports whether a AND b is nonzero. A false return proves the
// two term sets are disjoint; a true return proves nothing.
func Overlaps(a, b Sig) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// orInto ORs src into dst.
func orInto(dst, src Sig) {
	for i, w := range src {
		dst[i] |= w
	}
}

// Sidecar is a collection's signature file held resident: one signature
// per document, one aggregate per storage page, one aggregate per
// cluster of ClusterDocs consecutive ids, and the root aggregate (the OR
// of everything).
type Sidecar struct {
	cfg      Config
	file     *iosim.File
	words    int
	numDocs  int
	numPages int64
	docs     []uint64
	pages    []uint64
	clusters []uint64
	root     Sig
}

// Build scans c, computes the signatures under cfg and writes them to
// the empty sidecar file f, returning the resident sidecar. Page
// aggregates follow c's physical layout (every page a document spans ORs
// in that document), so Build must run after any reordering — the
// cluster-driven path is reorder first, then Build.
func Build(c *collection.Collection, f *iosim.File, cfg Config) (*Sidecar, error) {
	if f.Pages() != 0 {
		return nil, fmt.Errorf("signature: build target %q must be empty", f.Name())
	}
	cfg = cfg.withDefaults()
	words := cfg.Bits / 64
	numDocs := int(c.NumDocs())
	numPages := c.File().Pages()
	numClusters := (numDocs + cfg.ClusterDocs - 1) / cfg.ClusterDocs

	s := &Sidecar{
		cfg:      cfg,
		file:     f,
		words:    words,
		numDocs:  numDocs,
		numPages: numPages,
		docs:     make([]uint64, numDocs*words),
		pages:    make([]uint64, numPages*int64(words)),
		clusters: make([]uint64, numClusters*words),
		root:     make(Sig, words),
	}

	ps := int64(c.File().PageSize())
	sc := c.Scan()
	for {
		d, err := sc.NextReuse()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		sig := s.doc(d.ID)
		for _, cell := range d.Cells {
			cfg.Add(sig, cell.Term)
		}
		ref, err := c.Ref(d.ID)
		if err != nil {
			return nil, err
		}
		first := ref.Off / ps
		last := (ref.Off + int64(ref.Len) - 1) / ps
		for p := first; p <= last; p++ {
			orInto(s.page(p), sig)
		}
		orInto(s.cluster(int(d.ID)/cfg.ClusterDocs), sig)
		orInto(s.root, sig)
	}

	if err := s.write(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open reads a sidecar previously written by Build back from f with one
// sequential sweep (charged to the iosim file).
func Open(f *iosim.File) (*Sidecar, error) {
	raw, err := f.ReadAt(0, f.Size())
	if err != nil {
		return nil, fmt.Errorf("signature: %q: %w", f.Name(), err)
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("signature: %q: truncated header", f.Name())
	}
	head := raw[:headerSize]
	if binary.LittleEndian.Uint32(head[0:]) != magic {
		return nil, fmt.Errorf("signature: %q: bad magic", f.Name())
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return nil, fmt.Errorf("signature: %q: unsupported version %d", f.Name(), v)
	}
	cfg := Config{
		Bits:        int(binary.LittleEndian.Uint32(head[8:])),
		Hashes:      int(binary.LittleEndian.Uint32(head[12:])),
		Granularity: int(binary.LittleEndian.Uint32(head[16:])),
		ClusterDocs: int(binary.LittleEndian.Uint32(head[20:])),
	}
	numDocs := int(binary.LittleEndian.Uint64(head[24:]))
	numPages := int64(binary.LittleEndian.Uint64(head[32:]))
	numClusters := int(binary.LittleEndian.Uint64(head[40:]))
	words := cfg.Bits / 64

	s := &Sidecar{
		cfg:      cfg,
		file:     f,
		words:    words,
		numDocs:  numDocs,
		numPages: numPages,
		docs:     make([]uint64, numDocs*words),
		pages:    make([]uint64, numPages*int64(words)),
		clusters: make([]uint64, numClusters*words),
		root:     make(Sig, words),
	}
	off := headerSize
	for _, arr := range [][]uint64{s.docs, s.pages, s.clusters} {
		if off+len(arr)*8 > len(raw) {
			return nil, fmt.Errorf("signature: %q: truncated body", f.Name())
		}
		for i := range arr {
			arr[i] = binary.LittleEndian.Uint64(raw[off+i*8:])
		}
		off += len(arr) * 8
	}
	for i := 0; i < numDocs; i++ {
		orInto(s.root, s.doc(uint32(i)))
	}
	return s, nil
}

// write serializes the sidecar through f's writer.
func (s *Sidecar) write() error {
	w := s.file.Writer()
	head := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(head[0:], magic)
	binary.LittleEndian.PutUint32(head[4:], version)
	binary.LittleEndian.PutUint32(head[8:], uint32(s.cfg.Bits))
	binary.LittleEndian.PutUint32(head[12:], uint32(s.cfg.Hashes))
	binary.LittleEndian.PutUint32(head[16:], uint32(s.cfg.Granularity))
	binary.LittleEndian.PutUint32(head[20:], uint32(s.cfg.ClusterDocs))
	binary.LittleEndian.PutUint64(head[24:], uint64(s.numDocs))
	binary.LittleEndian.PutUint64(head[32:], uint64(s.numPages))
	binary.LittleEndian.PutUint64(head[40:], uint64(len(s.clusters)/maxInt(s.words, 1)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	var buf [8]byte
	for _, arr := range [][]uint64{s.docs, s.pages, s.clusters} {
		for _, v := range arr {
			binary.LittleEndian.PutUint64(buf[:], v)
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// Config returns the code parameters the sidecar was built with.
func (s *Sidecar) Config() Config { return s.cfg }

// File returns the backing sidecar file.
func (s *Sidecar) File() *iosim.File { return s.file }

// Pages returns the sidecar's size in storage pages — the sequential
// read cost of loading it.
func (s *Sidecar) Pages() int64 { return s.file.Pages() }

// NumDocs returns the number of per-document signatures.
func (s *Sidecar) NumDocs() int { return s.numDocs }

// NumPages returns the number of per-page aggregates (the collection
// file's page count at build time).
func (s *Sidecar) NumPages() int64 { return s.numPages }

// NumClusters returns the number of cluster aggregates.
func (s *Sidecar) NumClusters() int { return len(s.clusters) / maxInt(s.words, 1) }

// MemBytes returns the resident size of the signature arrays.
func (s *Sidecar) MemBytes() int64 {
	return int64(len(s.docs)+len(s.pages)+len(s.clusters)+len(s.root)) * 8
}

func (s *Sidecar) doc(id uint32) Sig {
	i := int(id) * s.words
	return Sig(s.docs[i : i+s.words])
}

func (s *Sidecar) page(p int64) Sig {
	i := p * int64(s.words)
	return Sig(s.pages[i : i+int64(s.words)])
}

func (s *Sidecar) cluster(i int) Sig {
	j := i * s.words
	return Sig(s.clusters[j : j+s.words])
}

// Doc returns document id's signature.
func (s *Sidecar) Doc(id uint32) Sig { return s.doc(id) }

// Page returns page p's aggregate.
func (s *Sidecar) Page(p int64) Sig { return s.page(p) }

// Cluster returns cluster i's aggregate.
func (s *Sidecar) Cluster(i int) Sig { return s.cluster(i) }

// ClusterOf returns the cluster index holding document id.
func (s *Sidecar) ClusterOf(id uint32) int { return int(id) / s.cfg.ClusterDocs }

// ClusterRange returns the document id range [lo, hi) of cluster i.
func (s *Sidecar) ClusterRange(i int) (lo, hi uint32) {
	lo = uint32(i * s.cfg.ClusterDocs)
	h := (i + 1) * s.cfg.ClusterDocs
	if h > s.numDocs {
		h = s.numDocs
	}
	return lo, uint32(h)
}

// Root returns the OR of every document signature — the whole
// collection's term-set aggregate.
func (s *Sidecar) Root() Sig { return s.root }

// PageSkip measures the pruning power of q against the page aggregates:
// how many pages a filtered sweep would skip and how many contiguous
// retained runs remain (each run resuming costs one random read). Used
// by the cost model's plan-time estimates.
func (s *Sidecar) PageSkip(q Sig) (skipped, runs int64) {
	inRun := false
	for p := int64(0); p < s.numPages; p++ {
		if Overlaps(s.page(p), q) {
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			skipped++
			inRun = false
		}
	}
	return skipped, runs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
