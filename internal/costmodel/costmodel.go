// Package costmodel implements every I/O cost formula of the paper's
// Section 5, the overlap-probability model of Section 6, and the
// integrated algorithm-selection rule of Sections 6–7.
//
// The package is pure arithmetic with no dependencies: it reasons about a
// join "C1 SIMILAR_TO(λ) C2" solely through collection statistics
// (N, K, T), system parameters (B, P, α) and query parameters (λ, δ, q),
// exactly as the paper's simulation does. Costs are expressed in
// sequential-page-read units; a random page read costs α units.
//
// Sequential-variant formulas (hhs, hvs, vvs) model each collection being
// "read by a dedicated drive with no or little interference"; the random
// variants (hhr, hvr, vvr) model the worst case where the I/O devices are
// busy with other obligations.
package costmodel

import (
	"fmt"
	"math"
)

// Storage constants fixed by the paper.
const (
	// CellBytes is the size of a d-cell or i-cell: |t#| + |w| = 3 + 2.
	CellBytes = 5
	// BTreeCellBytes is the size of a B+tree leaf cell: 3 + 4 + 2.
	BTreeCellBytes = 9
	// SimBytes is the paper's 4-byte similarity, for page formulas only:
	// joins hold float64s, and admission charges core's memory model.
	SimBytes = 4
	// TermNumBytes is |t#|, charged per entry in HVNL's resident term
	// list.
	TermNumBytes = 3
)

// Infeasible is the cost reported when an algorithm cannot run within the
// memory budget.
var Infeasible = math.Inf(1)

// Collection carries the statistics of one document collection.
type Collection struct {
	// N is the number of documents.
	N int64
	// K is the average number of terms per document.
	K float64
	// T is the number of distinct terms.
	T int64
}

// System carries the system parameters.
type System struct {
	// B is the memory buffer size in pages.
	B int64
	// P is the page size in bytes.
	P int64
	// Alpha is the cost ratio of a random over a sequential page read.
	Alpha float64
}

// DefaultSystem returns the paper's base values: B = 10000 pages of 4 KB,
// α = 5.
func DefaultSystem() System { return System{B: 10000, P: 4096, Alpha: 5} }

// Query carries the query parameters.
type Query struct {
	// Lambda is λ of SIMILAR_TO(λ).
	Lambda int64
	// Delta is δ, the fraction of non-zero similarities.
	Delta float64
}

// DefaultQuery returns the paper's base values: λ = 20, δ = 0.1.
func DefaultQuery() Query { return Query{Lambda: 20, Delta: 0.1} }

// Derived collection quantities (Section 3's notation).

// S returns the average document size in pages: 5·K/P.
func (c Collection) S(sys System) float64 { return CellBytes * c.K / float64(sys.P) }

// D returns the collection size in pages: S·N.
func (c Collection) D(sys System) float64 { return c.S(sys) * float64(c.N) }

// J returns the average inverted file entry size in pages:
// 5·(K·N)/(T·P).
func (c Collection) J(sys System) float64 {
	if c.T == 0 {
		return 0
	}
	return CellBytes * c.K * float64(c.N) / (float64(c.T) * float64(sys.P))
}

// I returns the inverted file size in pages: J·T (equal to D).
func (c Collection) I(sys System) float64 { return c.J(sys) * float64(c.T) }

// Bt returns the B+tree size in pages: 9·T/P.
func (c Collection) Bt(sys System) float64 {
	return BTreeCellBytes * float64(c.T) / float64(sys.P)
}

// Overlap implements the simulation's overlap-probability formula. It
// returns the probability that a term of a collection with tFrom distinct
// terms also appears in a collection with tTo distinct terms:
//
//	0.8·tTo/tFrom   if tTo ≤ tFrom
//	0.8             if tFrom < tTo < 5·tFrom
//	1 − tFrom/tTo   if tTo ≥ 5·tFrom
//
// The paper's q (term of C2 appears in C1) is Overlap(T1, T2) and p is
// Overlap(T2, T1).
func Overlap(tTo, tFrom int64) float64 {
	if tTo <= 0 || tFrom <= 0 {
		return 0
	}
	switch {
	case tTo <= tFrom:
		return 0.8 * float64(tTo) / float64(tFrom)
	case tTo < 5*tFrom:
		return 0.8
	default:
		return 1 - float64(tFrom)/float64(tTo)
	}
}

// Input describes one join for cost estimation. C2 describes the
// documents actually participating in the join (after selections), while
// InvOnC1/InvOnC2 describe the collections whose inverted files and
// B+trees exist on disk — for an originally large C2 reduced by a
// selection these stay at the original statistics, the paper's Group 3
// point that "the size of the file remains the same even if the number of
// documents ... can be reduced by a selection".
type Input struct {
	C1 Collection
	C2 Collection
	// Q is the probability that a term in C2 also appears in C1. Zero
	// means "derive from the simulation formula".
	Q float64
	// InvOnC1 and InvOnC2 default to C1 and C2 when zero.
	InvOnC1 Collection
	InvOnC2 Collection
	// C2Random marks that C2's participating documents must be read
	// with random I/O (a selection over an originally large collection).
	C2Random bool
}

// normalize fills defaults.
func (in Input) normalize() Input {
	if in.InvOnC1 == (Collection{}) {
		in.InvOnC1 = in.C1
	}
	if in.InvOnC2 == (Collection{}) {
		in.InvOnC2 = in.C2
	}
	if in.Q == 0 {
		in.Q = Overlap(in.InvOnC1.T, in.C2.T)
	}
	return in
}

// c2ReadCost returns the cost of bringing every participating C2 document
// into memory once: a sequential scan of D2 pages, or N2 random reads of
// ⌈S2⌉ pages each.
func (in Input) c2ReadCost(sys System) float64 {
	if in.C2Random {
		return float64(in.C2.N) * math.Ceil(in.C2.S(sys)) * sys.Alpha
	}
	return in.C2.D(sys)
}

// ---- HHNL (Section 5.1) ----

// HHNLBatch returns the paper's X: the number of C2 documents held per
// batch, X = (B − ⌈S1⌉)/(S2 + 4λ/P), clamped at 1 when positive memory
// remains (the running algorithm degrades to one document at a time).
// It returns 0 when even that is impossible.
func HHNLBatch(in Input, sys System, q Query) float64 {
	in = in.normalize()
	avail := float64(sys.B) - math.Ceil(in.C1.S(sys))
	if avail <= 0 {
		return 0
	}
	per := in.C2.S(sys) + float64(SimBytes)*float64(q.Lambda)/float64(sys.P)
	if per <= 0 {
		return 0
	}
	x := avail / per
	if x < 1 {
		if avail >= per { // unreachable, defensive
			return 1
		}
		// One document at a time still needs the document to fit.
		if float64(sys.B) >= math.Ceil(in.C1.S(sys))+math.Ceil(in.C2.S(sys)) {
			return 1
		}
		return 0
	}
	return x
}

// HHNLSeq returns hhs = cost(C2) + ⌈N2/X⌉·D1, the all-sequential HHNL
// cost.
func HHNLSeq(in Input, sys System, q Query) float64 {
	in = in.normalize()
	x := HHNLBatch(in, sys, q)
	if x <= 0 {
		return Infeasible
	}
	scans := math.Ceil(float64(in.C2.N) / x)
	if in.C2.N == 0 {
		scans = 0
	}
	return in.c2ReadCost(sys) + scans*in.C1.D(sys)
}

// HHNLRand returns hhr, the worst-case HHNL cost with contended devices:
//
//	N2 ≥ X: hhs + ⌈N2/X⌉·(1 + min{D1, N1})·(α−1)
//	N2 < X: hhs + ⌈D1/((X−N2)·S2)⌉·(α−1)
func HHNLRand(in Input, sys System, q Query) float64 {
	in = in.normalize()
	hhs := HHNLSeq(in, sys, q)
	if math.IsInf(hhs, 1) {
		return Infeasible
	}
	x := HHNLBatch(in, sys, q)
	n2 := float64(in.C2.N)
	if n2 >= x {
		randomsPerScan := 1 + math.Min(in.C1.D(sys), float64(in.C1.N))
		return hhs + math.Ceil(n2/x)*randomsPerScan*(sys.Alpha-1)
	}
	spare := (x - n2) * in.C2.S(sys)
	if spare <= 0 {
		return hhs + in.C1.D(sys)*(sys.Alpha-1)
	}
	return hhs + math.Ceil(in.C1.D(sys)/spare)*(sys.Alpha-1)
}

// ---- HVNL (Section 5.2) ----

// HVNLBufferEntries returns the paper's X for HVNL: the number of inverted
// file entries on C1 that fit in memory alongside one C2 document, the
// B+tree on C1 and the non-zero similarity accumulators:
//
//	X = ⌊(B − ⌈S2⌉ − Bt1 − 4·N1·δ/P) / (J1 + |t#|/P)⌋
func HVNLBufferEntries(in Input, sys System, q Query) float64 {
	in = in.normalize()
	avail := float64(sys.B) - math.Ceil(in.C2.S(sys)) - in.InvOnC1.Bt(sys) -
		float64(SimBytes)*float64(in.C1.N)*q.Delta/float64(sys.P)
	if avail <= 0 {
		return 0
	}
	per := in.InvOnC1.J(sys) + float64(TermNumBytes)/float64(sys.P)
	if per <= 0 {
		return 0
	}
	return math.Floor(avail / per)
}

// hvnlNeeded returns the expected number of inverted file entries on C1
// the whole join ever reads: q·f(N2), the distinct terms appearing in
// C2's participating documents that also occur in C1. The paper writes
// T2·q in its first two regimes; the two coincide for full-size
// collections (f(N2) → T2) while q·f(N2) stays consistent with the
// third regime's growth model for small N2, keeping hvs monotone in B.
func hvnlNeeded(in Input) float64 {
	return in.Q * hvnlGrowth(in.C2, float64(in.C2.N))
}

// hvnlGrowth is f(m) = T2 − (1 − K2/T2)^m · T2, the expected number of
// distinct terms in m documents of C2.
func hvnlGrowth(c2 Collection, m float64) float64 {
	t2 := float64(c2.T)
	if t2 <= 0 || m <= 0 {
		return 0
	}
	frac := 1 - c2.K/t2
	if frac < 0 {
		frac = 0
	}
	return t2 - math.Pow(frac, m)*t2
}

// HVNLSeq returns hvs, the HVNL cost with sequential C2 reads, in the
// paper's three memory regimes.
func HVNLSeq(in Input, sys System, q Query) float64 {
	in = in.normalize()
	x := HVNLBufferEntries(in, sys, q)
	if x <= 0 {
		return Infeasible
	}
	d2 := in.c2ReadCost(sys)
	bt1 := in.InvOnC1.Bt(sys)
	j1 := math.Ceil(in.InvOnC1.J(sys))
	t1 := float64(in.InvOnC1.T)
	needed := hvnlNeeded(in)

	switch {
	case x >= t1:
		// All entries fit: read the whole inverted file sequentially, or
		// only the needed entries randomly, whichever is cheaper.
		seqAll := d2 + in.InvOnC1.I(sys) + bt1
		randNeeded := d2 + needed*j1*sys.Alpha + bt1
		return math.Min(seqAll, randNeeded)
	case x >= needed:
		// All needed entries fit: each is read once, randomly.
		return d2 + needed*j1*sys.Alpha + bt1
	default:
		// Memory fills after the first s + X1 − 1 documents; each later
		// document forces Y new entry reads. The fill term is capped at
		// the entries ever needed: beyond that the formula's
		// X-proportional term would charge reads that never happen.
		s, x1 := hvnlFillPoint(in, x)
		y := q1Clamp(in.Q*hvnlGrowth(in.C2, s+x1) - x)
		remaining := float64(in.C2.N) - s - x1 + 1
		if remaining < 0 {
			remaining = 0
		}
		return d2 + math.Min(x, needed)*j1*sys.Alpha + bt1 + remaining*y*j1*sys.Alpha
	}
}

func q1Clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// hvnlFillPoint returns (s, X1): s is the smallest document count m with
// q·f(m) > X, and X1 the fraction of the s-th document's new entries that
// still fit.
func hvnlFillPoint(in Input, x float64) (float64, float64) {
	s := 1.0
	// Closed form: q·T2·(1 − r^m) > X  ⇔  r^m < 1 − X/(q·T2).
	t2, k2 := float64(in.C2.T), in.C2.K
	r := 1 - k2/t2
	if r <= 0 {
		// Each document contains the whole vocabulary; memory fills
		// within the first document.
		return 1, 1
	}
	target := 1 - x/(in.Q*t2)
	if target <= 0 {
		// q·f(m) never exceeds X: the caller's regime check prevents
		// this, but stay defensive.
		return float64(in.C2.N), 1
	}
	s = math.Ceil(math.Log(target) / math.Log(r))
	if s < 1 {
		s = 1
	}
	fPrev := in.Q * hvnlGrowth(in.C2, s-1)
	fS := in.Q * hvnlGrowth(in.C2, s)
	if fS <= fPrev {
		return s, 1
	}
	x1 := (x - fPrev) / (fS - fPrev)
	if x1 < 0 {
		x1 = 0
	}
	if x1 > 1 {
		x1 = 1
	}
	return s, x1
}

// HVNLRand returns hvr, HVNL's worst-case cost when C2's reads contend
// with the inverted file's random reads.
func HVNLRand(in Input, sys System, q Query) float64 {
	in = in.normalize()
	x := HVNLBufferEntries(in, sys, q)
	if x <= 0 {
		return Infeasible
	}
	hvs := HVNLSeq(in, sys, q)
	if in.C2Random {
		// C2 is already charged at random rates; the (α−1) surcharges
		// below only convert sequential C2 reads.
		return hvs
	}
	d2 := in.C2.D(sys)
	bt1 := in.InvOnC1.Bt(sys)
	j1raw := in.InvOnC1.J(sys)
	j1 := math.Ceil(j1raw)
	t1 := float64(in.InvOnC1.T)
	needed := hvnlNeeded(in)

	switch {
	case x >= t1:
		a := d2 + in.InvOnC1.I(sys) + bt1 + blockSurcharge(d2, (x-t1)*j1raw, sys)
		b := d2 + needed*j1*sys.Alpha + bt1 + blockSurcharge(d2, (x-needed)*j1raw, sys)
		return math.Min(a, b)
	case x >= needed:
		return hvs + blockSurcharge(d2, (x-needed)*j1raw, sys)
	default:
		return hvs + math.Min(d2, float64(in.C2.N))*(sys.Alpha-1)
	}
}

// blockSurcharge converts the sequential scan of d2 pages into blocks that
// fit in spare pages, charging (α−1) for the seek starting each block.
func blockSurcharge(d2, sparePages float64, sys System) float64 {
	if sparePages <= 0 {
		return d2 * (sys.Alpha - 1)
	}
	return math.Ceil(d2/sparePages) * (sys.Alpha - 1)
}

// ---- VVM (Section 5.3) ----

// VVMPartitions returns ⌈SM/M⌉: the number of passes VVM needs, where
// SM = 4·δ·N1·N2/P pages of intermediate similarities and
// M = B − ⌈J1⌉ − ⌈J2⌉ pages of memory. It returns 0 when M ≤ 0.
func VVMPartitions(in Input, sys System, q Query) float64 {
	in = in.normalize()
	m := float64(sys.B) - math.Ceil(in.InvOnC1.J(sys)) - math.Ceil(in.InvOnC2.J(sys))
	if m <= 0 {
		return 0
	}
	sm := float64(SimBytes) * q.Delta * float64(in.C1.N) * float64(in.C2.N) / float64(sys.P)
	parts := math.Ceil(sm / m)
	if parts < 1 {
		parts = 1
	}
	return parts
}

// VVMSeq returns vvs = (I1 + I2)·⌈SM/M⌉.
func VVMSeq(in Input, sys System, q Query) float64 {
	in = in.normalize()
	parts := VVMPartitions(in, sys, q)
	if parts == 0 {
		return Infeasible
	}
	return (in.InvOnC1.I(sys) + in.InvOnC2.I(sys)) * parts
}

// VVMRand returns vvr = (min{I1,T1} + min{I2,T2})·α·⌈SM/M⌉.
func VVMRand(in Input, sys System, q Query) float64 {
	in = in.normalize()
	parts := VVMPartitions(in, sys, q)
	if parts == 0 {
		return Infeasible
	}
	r1 := math.Min(in.InvOnC1.I(sys), float64(in.InvOnC1.T))
	r2 := math.Min(in.InvOnC2.I(sys), float64(in.InvOnC2.T))
	return (r1 + r2) * sys.Alpha * parts
}

// ---- Integrated selection (Sections 6–7) ----

// Algorithm mirrors core's algorithm identifiers without importing it.
type Algorithm int

// The three algorithms, in the paper's order, plus the approximate
// MinHash/banding join (an extension beyond the paper).
const (
	AlgHHNL Algorithm = iota
	AlgHVNL
	AlgVVM
	AlgLSH
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgHHNL:
		return "HHNL"
	case AlgHVNL:
		return "HVNL"
	case AlgVVM:
		return "VVM"
	case AlgLSH:
		return "LSH"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Estimate is the estimated cost of one algorithm on one input.
type Estimate struct {
	Algorithm Algorithm
	// Seq is the all-sequential cost (hhs/hvs/vvs).
	Seq float64
	// Rand is the worst-case cost (hhr/hvr/vvr).
	Rand float64
	// Prefiltered marks a signature-prefiltered plan variant (see
	// EstimateHHNLPrefilter).
	Prefiltered bool
	// Recall is the estimated recall of an approximate plan. Only
	// meaningful when Algorithm is AlgLSH (see EstimateLSH); the exact
	// algorithms leave it zero — their recall is 1 by construction and
	// the planner treats it so.
	Recall float64
}

// EstimateAll evaluates all six formulas.
func EstimateAll(in Input, sys System, q Query) []Estimate {
	return []Estimate{
		{Algorithm: AlgHHNL, Seq: HHNLSeq(in, sys, q), Rand: HHNLRand(in, sys, q)},
		{Algorithm: AlgHVNL, Seq: HVNLSeq(in, sys, q), Rand: HVNLRand(in, sys, q)},
		{Algorithm: AlgVVM, Seq: VVMSeq(in, sys, q), Rand: VVMRand(in, sys, q)},
	}
}

// Choose implements the integrated algorithm: return the basic algorithm
// with the lowest estimated (sequential) cost, with ties broken in the
// paper's presentation order HHNL, HVNL, VVM. The estimates are returned
// for explanation.
func Choose(in Input, sys System, q Query) (Algorithm, []Estimate) {
	ests := EstimateAll(in, sys, q)
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Seq < best.Seq {
			best = e
		}
	}
	return best.Algorithm, ests
}
