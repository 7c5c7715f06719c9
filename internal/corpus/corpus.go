// Package corpus generates synthetic document collections that reproduce
// the statistics of the paper's three TREC collections.
//
// The paper's simulation is driven entirely by collection statistics —
// number of documents N, average terms per document K, distinct terms T —
// taken from the ARPA/NIST TREC-1 tapes (WSJ, FR, DOE), which are not
// redistributable. This package substitutes synthetic corpora whose
// *measured* statistics match a target Profile: document lengths are
// jittered around K, term choices follow a Zipf distribution over a
// T-term vocabulary (giving realistic document-frequency skew, which
// drives HVNL's cache policy and the non-zero-similarity fraction δ), and
// occurrence counts follow a small geometric-like distribution.
//
// Profiles can be scaled down for laptop-scale empirical runs
// (Profile.Scaled preserves the vocabulary density K/T that the paper's
// overlap and δ behavior depend on) and transformed the way the paper's
// experiment groups require (Group 5's fewer-but-larger documents).
package corpus

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
)

// Profile describes the target statistics of a synthetic collection.
type Profile struct {
	// Name identifies the profile (e.g. "WSJ").
	Name string
	// NumDocs is N, the number of documents.
	NumDocs int64
	// TermsPerDoc is K, the mean number of distinct terms per document.
	TermsPerDoc float64
	// DistinctTerms is T, the vocabulary size.
	DistinctTerms int64
	// ZipfS is the Zipf skew parameter (> 1). Zero selects the default
	// 1.2, a typical text skew.
	ZipfS float64
	// MaxOccurrences bounds the per-term occurrence count. Zero selects
	// the default 6.
	MaxOccurrences int
}

// The paper's statistics table ("collected by ARPA/NIST"):
//
//	            WSJ     FR      DOE
//	#documents  98736   26207   226087
//	terms/doc   329     1017    89
//	#terms      156298  126258  186225
var (
	// WSJ is the Wall Street Journal collection profile.
	WSJ = Profile{Name: "WSJ", NumDocs: 98736, TermsPerDoc: 329, DistinctTerms: 156298}
	// FR is the Federal Register collection profile: fewer but larger
	// documents.
	FR = Profile{Name: "FR", NumDocs: 26207, TermsPerDoc: 1017, DistinctTerms: 126258}
	// DOE is the Department of Energy collection profile: more but
	// smaller documents.
	DOE = Profile{Name: "DOE", NumDocs: 226087, TermsPerDoc: 89, DistinctTerms: 186225}
)

// Profiles returns the three paper profiles in presentation order.
func Profiles() []Profile { return []Profile{WSJ, FR, DOE} }

// ProfileByName finds a paper profile by case-insensitive name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("corpus: unknown profile %q (want wsj, fr or doe)", name)
}

// Stats converts the profile to the cost model's collection description.
func (p Profile) Stats() costmodel.Collection {
	return costmodel.Collection{N: p.NumDocs, K: p.TermsPerDoc, T: p.DistinctTerms}
}

// Scaled shrinks the profile by the given divisor for laptop-scale runs:
// N is divided by d, while K and T are divided by √d so that the
// vocabulary density K/T — which governs term overlap and the non-zero
// similarity fraction — is preserved.
func (p Profile) Scaled(divisor int64) Profile {
	if divisor <= 1 {
		return p
	}
	root := math.Sqrt(float64(divisor))
	out := p
	out.Name = fmt.Sprintf("%s/%d", p.Name, divisor)
	out.NumDocs = maxI64(1, p.NumDocs/divisor)
	out.TermsPerDoc = math.Max(2, p.TermsPerDoc/root)
	out.DistinctTerms = maxI64(int64(out.TermsPerDoc)*4, int64(float64(p.DistinctTerms)/root))
	return out
}

// FewerLargerDocs applies the paper's Group 5 transform: divide the number
// of documents by factor and multiply the terms per document by the same
// factor, leaving the collection size (and vocabulary) unchanged —
// "reducing the number of documents in the real collection and increasing
// the number of terms in each document in the real collection by the same
// factor such that the collection size remains unchanged".
func (p Profile) FewerLargerDocs(factor int64) Profile {
	if factor <= 1 {
		return p
	}
	out := p
	out.Name = fmt.Sprintf("%s×%d", p.Name, factor)
	out.NumDocs = maxI64(1, p.NumDocs/factor)
	out.TermsPerDoc = p.TermsPerDoc * float64(factor)
	if out.TermsPerDoc > float64(out.DistinctTerms) {
		out.TermsPerDoc = float64(out.DistinctTerms)
	}
	return out
}

// Small derives an originally small collection with m documents and the
// same per-document shape (the paper's Group 4 setting).
func (p Profile) Small(m int64) Profile {
	out := p
	out.Name = fmt.Sprintf("%s-small%d", p.Name, m)
	out.NumDocs = m
	// The vocabulary reachable by m documents follows the paper's
	// growth formula.
	out.DistinctTerms = maxI64(int64(p.TermsPerDoc),
		int64(collection.VocabularyGrowth(float64(p.DistinctTerms), p.TermsPerDoc, float64(m))))
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (p Profile) zipfS() float64 {
	if p.ZipfS > 1 {
		return p.ZipfS
	}
	return 1.2
}

func (p Profile) maxOcc() int {
	if p.MaxOccurrences > 0 {
		return p.MaxOccurrences
	}
	return 6
}

// Generator produces random documents matching a profile. It is
// deterministic for a given seed.
type Generator struct {
	p    Profile
	r    *rand.Rand
	zipf *rand.Zipf
}

// NewGenerator creates a generator for the profile.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	if p.NumDocs < 0 || p.DistinctTerms < 1 || p.TermsPerDoc < 1 {
		return nil, fmt.Errorf("corpus: degenerate profile %+v", p)
	}
	if p.TermsPerDoc > float64(p.DistinctTerms) {
		return nil, fmt.Errorf("corpus: profile %q has K=%v > T=%d", p.Name, p.TermsPerDoc, p.DistinctTerms)
	}
	r := rand.New(rand.NewSource(seed))
	return &Generator{
		p:    p,
		r:    r,
		zipf: rand.NewZipf(r, p.zipfS(), 1, uint64(p.DistinctTerms-1)),
	}, nil
}

// docLength samples a distinct-term count with mean ≈ K: uniform jitter in
// [K/2, 3K/2).
func (g *Generator) docLength() int {
	k := g.p.TermsPerDoc
	l := int(k * (0.5 + g.r.Float64()))
	if l < 1 {
		l = 1
	}
	if int64(l) > g.p.DistinctTerms {
		l = int(g.p.DistinctTerms)
	}
	return l
}

// Document generates the document with the given id.
func (g *Generator) Document(id uint32) *document.Document {
	length := g.docLength()
	counts := make(map[uint32]int, length)
	// Sample Zipf-distributed distinct terms; if the rejection loop
	// stalls (length close to T), sweep the vocabulary deterministically.
	attempts := 0
	for len(counts) < length && attempts < 20*length {
		term := uint32(g.zipf.Uint64())
		attempts++
		if _, ok := counts[term]; ok {
			continue
		}
		counts[term] = 1 + g.occurrences()
	}
	for term := uint32(0); len(counts) < length && int64(term) < g.p.DistinctTerms; term++ {
		if _, ok := counts[term]; !ok {
			counts[term] = 1 + g.occurrences()
		}
	}
	return document.New(id, counts)
}

// occurrences samples the extra occurrences beyond the first: a geometric
// tail truncated at MaxOccurrences.
func (g *Generator) occurrences() int {
	extra := 0
	for extra < g.p.maxOcc()-1 && g.r.Float64() < 0.4 {
		extra++
	}
	return extra
}

// Generate builds a full collection matching the profile into the given
// empty file.
func Generate(p Profile, seed int64, file *iosim.File) (*collection.Collection, error) {
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	b, err := collection.NewBuilder(p.Name, file)
	if err != nil {
		return nil, err
	}
	for id := int64(0); id < p.NumDocs; id++ {
		if err := b.Add(g.Document(uint32(id))); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// ClusteredProfile configures planted-topic corpus generation for
// experiments on clustered collections (the paper's remark that HVNL
// benefits when close documents share many terms).
type ClusteredProfile struct {
	Profile
	// Topics is the number of planted clusters. The vocabulary is split
	// into Topics contiguous ranges; each document draws TopicFraction
	// of its terms from its own topic's range and the rest globally.
	Topics int
	// TopicFraction is the fraction of a document's terms drawn from
	// its topic (default 0.8).
	TopicFraction float64
	// Scatter controls the storage order of cluster members: true
	// assigns documents to topics round-robin (cluster members are
	// scattered through the file), false stores each cluster
	// contiguously.
	Scatter bool
}

// GenerateClustered builds a collection with planted topic clusters into
// the given empty file. Document i belongs to topic i%Topics (Scatter) or
// topic i/(N/Topics) (contiguous).
func GenerateClustered(p ClusteredProfile, seed int64, file *iosim.File) (*collection.Collection, error) {
	if p.Topics <= 0 {
		return nil, fmt.Errorf("corpus: clustered profile needs at least one topic")
	}
	frac := p.TopicFraction
	if frac == 0 {
		frac = 0.8
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("corpus: topic fraction %v out of [0,1]", frac)
	}
	g, err := NewGenerator(p.Profile, seed)
	if err != nil {
		return nil, err
	}
	b, err := collection.NewBuilder(p.Name, file)
	if err != nil {
		return nil, err
	}
	topicWidth := p.DistinctTerms / int64(p.Topics)
	if topicWidth < 1 {
		topicWidth = 1
	}
	perTopic := (p.NumDocs + int64(p.Topics) - 1) / int64(p.Topics)
	for id := int64(0); id < p.NumDocs; id++ {
		topic := id % int64(p.Topics)
		if !p.Scatter {
			topic = id / perTopic
			if topic >= int64(p.Topics) {
				topic = int64(p.Topics) - 1
			}
		}
		length := g.docLength()
		counts := make(map[uint32]int, length)
		lo := topic * topicWidth
		for len(counts) < length {
			var term uint32
			if g.r.Float64() < frac {
				term = uint32(lo + g.r.Int63n(topicWidth))
			} else {
				term = uint32(g.zipf.Uint64())
			}
			if _, ok := counts[term]; ok {
				continue
			}
			counts[term] = 1 + g.occurrences()
		}
		if err := b.Add(document.New(uint32(id), counts)); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// GenerateOn is a convenience that creates the file on the disk and
// generates the collection.
func GenerateOn(d *iosim.Disk, fileName string, p Profile, seed int64) (*collection.Collection, error) {
	f, err := d.Create(fileName)
	if err != nil {
		return nil, err
	}
	return Generate(p, seed, f)
}

// WriteText serializes documents in the portable text format used by
// cmd/corpusgen: one document per line,
//
//	<docID> <term>:<occurrences> <term>:<occurrences> ...
func WriteText(w io.Writer, docs []*document.Document) error {
	bw := bufio.NewWriter(w)
	for _, d := range docs {
		if _, err := fmt.Fprintf(bw, "%d", d.ID); err != nil {
			return err
		}
		for _, c := range d.Cells {
			if _, err := fmt.Fprintf(bw, " %d:%d", c.Term, c.Weight); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the portable text format back into documents.
func ReadText(r io.Reader) ([]*document.Document, error) {
	var docs []*document.Document
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		id, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad doc id %q: %v", lineNo, fields[0], err)
		}
		counts := make(map[uint32]int, len(fields)-1)
		for _, f := range fields[1:] {
			term, occ, ok := strings.Cut(f, ":")
			if !ok {
				return nil, fmt.Errorf("corpus: line %d: bad cell %q", lineNo, f)
			}
			tn, err := strconv.ParseUint(term, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("corpus: line %d: bad term %q: %v", lineNo, term, err)
			}
			on, err := strconv.ParseUint(occ, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("corpus: line %d: bad occurrence count %q: %v", lineNo, occ, err)
			}
			counts[uint32(tn)] += int(on)
		}
		docs = append(docs, document.New(uint32(id), counts))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return docs, nil
}
