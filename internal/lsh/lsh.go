// Package lsh implements seeded, deterministic MinHash/banding
// signatures for the approximate similarity join: every document gets
// b band keys, each a fold of r MinHash row values over the document's
// term set, persisted as a bucket-partitioned sidecar file on the iosim
// disk (the same idiom as internal/signature's "TJSG" file).
//
// Two documents become a candidate pair iff at least one band key
// collides. For Jaccard similarity s between the term sets, the
// collision probability is the classic S-curve
//
//	P(candidate) = 1 − (1 − s^r)^b
//
// which the cost model prices as costmodel.Recall. Unlike the
// superimposed-code prefilter (which may only skip, never admit), LSH
// may miss truly similar pairs — the join that consumes these buckets
// verifies every candidate with the exact scorer, so precision is
// perfect and only recall is probabilistic.
//
// Everything is derived from Config.Seed with splitmix64-style mixing:
// the same collection, configuration and seed produce byte-identical
// sidecar files and bucket tables on every run and platform, which the
// differential harness and the fuzz tests pin.
package lsh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// Defaults for Config's zero values.
const (
	DefaultBands = 16
	DefaultRows  = 2
	// DefaultSeed is an arbitrary nonzero constant so the zero Config is
	// usable; any fixed seed works, determinism is what matters.
	DefaultSeed = 0x746a6c736831 // "tjlsh1"
)

// Sidecar file layout constants.
const (
	magic   = 0x544a4c48 // "TJLH"
	version = 1
	// headerSize is the fixed serialized header: magic, version, bands,
	// rows (uint32 each) then numDocs, seed (uint64 each). The body is
	// numDocs×bands little-endian band keys followed by the non-empty
	// bitmap, ⌈numDocs/8⌉ bytes.
	headerSize = 4*4 + 2*8
)

// golden is the splitmix64 stream increment.
const golden = 0x9e3779b97f4a7c15

// Config sets the banding shape. The zero value selects the defaults
// above.
type Config struct {
	// Bands is b: the number of independent band keys per document. More
	// bands raise recall and candidate volume.
	Bands int
	// Rows is r: the number of MinHash rows folded into each band key.
	// More rows sharpen the S-curve (fewer low-similarity candidates,
	// lower recall at fixed b).
	Rows int
	// Seed derives every row and band salt. Equal seeds produce equal
	// buckets; 0 selects DefaultSeed.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Bands <= 0 {
		c.Bands = DefaultBands
	}
	if c.Rows <= 0 {
		c.Rows = DefaultRows
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// mix64 is the splitmix64 finalizer: a bijective 64-bit mix with good
// avalanche, the same construction internal/signature hashes with.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowSalt derives MinHash row j's salt from the seed.
func (c Config) rowSalt(j int) uint64 {
	return mix64(c.Seed + uint64(j+1)*golden)
}

// rowHash hashes one term under row salt — the value whose minimum over
// a document's terms is that document's MinHash row value.
func rowHash(salt uint64, term uint32) uint64 {
	return mix64(salt ^ (uint64(term) + golden))
}

// bandSalt derives band b's fold seed.
func (c Config) bandSalt(b int) uint64 {
	return mix64(c.Seed ^ (uint64(b)+1)*golden)
}

// foldBand folds r row minima into one band key.
func foldBand(salt uint64, rows []uint64) uint64 {
	key := salt
	for _, v := range rows {
		key = mix64(key ^ v)
	}
	return key
}

// Keys computes d's band keys into dst (reallocating when mis-sized)
// and returns them. A document with no terms has no MinHash and
// returns an empty slice: it lands in no bucket and pairs with nothing,
// matching the exact joins where an empty document scores zero against
// everything and zero similarities are never kept.
//
// This is the per-document path: row-major, each row's minimum taken
// over the terms before the next row starts. Build uses an incremental
// term-major path; both must produce identical keys (fuzz-pinned).
func (c Config) Keys(d *document.Document, dst []uint64) []uint64 {
	c = c.withDefaults()
	if len(d.Cells) == 0 {
		return dst[:0]
	}
	if cap(dst) < c.Bands {
		dst = make([]uint64, c.Bands)
	}
	dst = dst[:c.Bands]
	rows := make([]uint64, c.Rows)
	for b := 0; b < c.Bands; b++ {
		for j := 0; j < c.Rows; j++ {
			salt := c.rowSalt(b*c.Rows + j)
			min := uint64(math.MaxUint64)
			for _, cell := range d.Cells {
				if h := rowHash(salt, cell.Term); h < min {
					min = h
				}
			}
			rows[j] = min
		}
		dst[b] = foldBand(c.bandSalt(b), rows)
	}
	return dst
}

// batchKeys is the term-major path Build uses: one pass over the cells
// updates every row minimum, then the bands fold. Identical output to
// Keys — the min over terms commutes with the loop order.
func (c Config) batchKeys(d *document.Document, minima, dst []uint64) []uint64 {
	if len(d.Cells) == 0 {
		return dst[:0]
	}
	total := c.Bands * c.Rows
	minima = minima[:total]
	for j := range minima {
		minima[j] = math.MaxUint64
	}
	for _, cell := range d.Cells {
		for j := 0; j < total; j++ {
			if h := rowHash(c.rowSalt(j), cell.Term); h < minima[j] {
				minima[j] = h
			}
		}
	}
	dst = dst[:c.Bands]
	for b := 0; b < c.Bands; b++ {
		dst[b] = foldBand(c.bandSalt(b), minima[b*c.Rows:(b+1)*c.Rows])
	}
	return dst
}

// Sidecar is a collection's MinHash band-key file held resident after
// one sequential sweep, with the per-band bucket tables rebuilt in
// memory: Bucket(b, key) lists every document whose band b folded to
// key, in ascending document id order.
type Sidecar struct {
	cfg      Config
	file     *iosim.File
	numDocs  int
	keys     []uint64 // numDocs × Bands band keys
	nonEmpty []byte   // bitmap: bit id set iff document id has terms
	buckets  []map[uint64][]uint32
}

// Build scans c, computes every document's band keys under cfg and
// writes them to the empty sidecar file f, returning the resident
// sidecar with its bucket tables.
func Build(c *collection.Collection, f *iosim.File, cfg Config) (*Sidecar, error) {
	if f.Pages() != 0 {
		return nil, fmt.Errorf("lsh: build target %q must be empty", f.Name())
	}
	cfg = cfg.withDefaults()
	numDocs := int(c.NumDocs())
	s := &Sidecar{
		cfg:      cfg,
		file:     f,
		numDocs:  numDocs,
		keys:     make([]uint64, numDocs*cfg.Bands),
		nonEmpty: make([]byte, (numDocs+7)/8),
	}
	minima := make([]uint64, cfg.Bands*cfg.Rows)
	sc := c.Scan()
	for {
		d, err := sc.NextReuse()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		i := int(d.ID) * cfg.Bands
		keys := cfg.batchKeys(d, minima, s.keys[i:i+cfg.Bands])
		if len(keys) > 0 {
			s.nonEmpty[d.ID>>3] |= 1 << (d.ID & 7)
		}
	}
	if err := s.write(); err != nil {
		return nil, err
	}
	s.buildBuckets()
	return s, nil
}

// Open reads a sidecar previously written by Build back from f with one
// sequential sweep (charged to the iosim file) and rebuilds the bucket
// tables.
func Open(f *iosim.File) (*Sidecar, error) {
	raw := make([]byte, 0, f.Size())
	err := f.ReadRange(0, f.Pages(), func(_ int64, page []byte) error {
		raw = append(raw, page...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lsh: %q: %w", f.Name(), err)
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("lsh: %q: truncated header", f.Name())
	}
	head := raw[:headerSize]
	if binary.LittleEndian.Uint32(head[0:]) != magic {
		return nil, fmt.Errorf("lsh: %q: bad magic", f.Name())
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return nil, fmt.Errorf("lsh: %q: unsupported version %d", f.Name(), v)
	}
	cfg := Config{
		Bands: int(binary.LittleEndian.Uint32(head[8:])),
		Rows:  int(binary.LittleEndian.Uint32(head[12:])),
	}
	numDocs := int(binary.LittleEndian.Uint64(head[16:]))
	cfg.Seed = binary.LittleEndian.Uint64(head[24:])
	s := &Sidecar{
		cfg:      cfg,
		file:     f,
		numDocs:  numDocs,
		keys:     make([]uint64, numDocs*cfg.Bands),
		nonEmpty: make([]byte, (numDocs+7)/8),
	}
	off := headerSize
	if off+len(s.keys)*8+len(s.nonEmpty) > len(raw) {
		return nil, fmt.Errorf("lsh: %q: truncated body", f.Name())
	}
	for i := range s.keys {
		s.keys[i] = binary.LittleEndian.Uint64(raw[off+i*8:])
	}
	off += len(s.keys) * 8
	copy(s.nonEmpty, raw[off:off+len(s.nonEmpty)])
	s.buildBuckets()
	return s, nil
}

// write serializes the sidecar through f's writer.
func (s *Sidecar) write() error {
	w := s.file.Writer()
	head := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(head[0:], magic)
	binary.LittleEndian.PutUint32(head[4:], version)
	binary.LittleEndian.PutUint32(head[8:], uint32(s.cfg.Bands))
	binary.LittleEndian.PutUint32(head[12:], uint32(s.cfg.Rows))
	binary.LittleEndian.PutUint64(head[16:], uint64(s.numDocs))
	binary.LittleEndian.PutUint64(head[24:], s.cfg.Seed)
	if _, err := w.Write(head); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range s.keys {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	if _, err := w.Write(s.nonEmpty); err != nil {
		return err
	}
	return w.Flush()
}

// buildBuckets partitions the documents into per-band hash tables.
// Ascending id insertion order makes every bucket's member list sorted,
// which the joins rely on for deterministic candidate order.
func (s *Sidecar) buildBuckets() {
	s.buckets = make([]map[uint64][]uint32, s.cfg.Bands)
	for b := range s.buckets {
		s.buckets[b] = make(map[uint64][]uint32)
	}
	for id := 0; id < s.numDocs; id++ {
		if !s.hasTerms(uint32(id)) {
			continue
		}
		for b := 0; b < s.cfg.Bands; b++ {
			key := s.keys[id*s.cfg.Bands+b]
			s.buckets[b][key] = append(s.buckets[b][key], uint32(id))
		}
	}
}

func (s *Sidecar) hasTerms(id uint32) bool {
	return s.nonEmpty[id>>3]&(1<<(id&7)) != 0
}

// Config returns the banding parameters the sidecar was built with.
func (s *Sidecar) Config() Config { return s.cfg }

// File returns the backing sidecar file.
func (s *Sidecar) File() *iosim.File { return s.file }

// Pages returns the sidecar's size in storage pages — the sequential
// read cost of loading it.
func (s *Sidecar) Pages() int64 { return s.file.Pages() }

// NumDocs returns the number of documents the sidecar covers.
func (s *Sidecar) NumDocs() int { return s.numDocs }

// MemBytes returns the resident size of the key array and bitmap (the
// bucket tables add map overhead on top).
func (s *Sidecar) MemBytes() int64 {
	return int64(len(s.keys))*8 + int64(len(s.nonEmpty))
}

// DocKeys returns document id's band keys, or an empty slice for a
// document with no terms. The returned slice aliases the sidecar; do
// not modify.
func (s *Sidecar) DocKeys(id uint32) []uint64 {
	if !s.hasTerms(id) {
		return nil
	}
	i := int(id) * s.cfg.Bands
	return s.keys[i : i+s.cfg.Bands]
}

// Bucket returns the ascending document ids whose band b key equals
// key, or nil. The returned slice aliases the sidecar; do not modify.
func (s *Sidecar) Bucket(b int, key uint64) []uint32 {
	return s.buckets[b][key]
}

// maxProbeSamples bounds SelfProbe's work.
const maxProbeSamples = 256

// SelfProbe measures the sidecar's candidate volume for the planner by
// probing its own documents against its buckets: up to maxProbeSamples
// evenly spaced documents each collect the deduplicated union of their
// buckets' members. It returns the mean candidate fraction (candidates
// per probe over NumDocs) and the mean number of contiguous-id
// candidate runs per probe (each run a filtered scan resumes costs one
// random seek). CPU-only over the resident tables, fully deterministic.
func (s *Sidecar) SelfProbe() (candFrac, runs float64) {
	if s.numDocs == 0 {
		return 0, 0
	}
	step := s.numDocs / maxProbeSamples
	if step == 0 {
		step = 1
	}
	stamp := make([]int, s.numDocs)
	for i := range stamp {
		stamp[i] = -1
	}
	var cand []uint32
	var samples, totalCand, totalRuns int64
	for id := 0; id < s.numDocs; id += step {
		keys := s.DocKeys(uint32(id))
		if keys == nil {
			continue
		}
		samples++
		probe := int(samples) // distinct stamp per probe
		cand = cand[:0]
		for b, key := range keys {
			for _, m := range s.Bucket(b, key) {
				if stamp[m] != probe {
					stamp[m] = probe
					cand = append(cand, m)
				}
			}
		}
		totalCand += int64(len(cand))
		for _, m := range cand {
			if m == 0 || stamp[m-1] != probe {
				totalRuns++
			}
		}
	}
	if samples == 0 {
		return 0, 0
	}
	return float64(totalCand) / float64(samples) / float64(s.numDocs),
		float64(totalRuns) / float64(samples)
}
