package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The paper's statistics table for the three TREC collections.
var (
	wsj = Collection{N: 98736, K: 329, T: 156298}
	fr  = Collection{N: 26207, K: 1017, T: 126258}
	doe = Collection{N: 226087, K: 89, T: 186225}
)

func baseSys() System { return DefaultSystem() }
func baseQ() Query    { return DefaultQuery() }

func TestDerivedQuantitiesMatchPaperTable(t *testing.T) {
	// The paper's table says the page size is "4k", but the derived rows
	// (collection size, avg document size, avg entry size) only
	// reproduce with P = 4000 bytes: e.g. WSJ 5·329·98736/4000 =
	// 40604.6 ≈ the printed 40605 pages, while /4096 gives 39653. We
	// therefore evaluate the table at P = 4000 and record the
	// discrepancy in EXPERIMENTS.md.
	sys := System{B: 10000, P: 4000, Alpha: 5}
	cases := []struct {
		name       string
		c          Collection
		wantD      float64 // collection size in pages
		wantS      float64 // avg doc size in pages
		wantJ      float64 // avg inverted entry size in pages
		tolD, tolS float64
	}{
		// Paper's table: WSJ 40605 pages, 0.41 pages/doc, 0.26 pages/entry.
		{"WSJ", wsj, 40605, 0.41, 0.26, 0.01, 0.01},
		// FR 33315 pages, 1.27 pages/doc, 0.264 pages/entry.
		{"FR", fr, 33315, 1.27, 0.264, 0.01, 0.01},
		// DOE 25152 pages, 0.111 pages/doc, 0.135 pages/entry.
		{"DOE", doe, 25152, 0.111, 0.135, 0.01, 0.01},
	}
	for _, c := range cases {
		d := c.c.D(sys)
		if math.Abs(d-c.wantD)/c.wantD > c.tolD {
			t.Errorf("%s: D = %.0f, want ≈ %.0f", c.name, d, c.wantD)
		}
		s := c.c.S(sys)
		if math.Abs(s-c.wantS)/c.wantS > 0.02 {
			t.Errorf("%s: S = %.3f, want ≈ %.3f", c.name, s, c.wantS)
		}
		j := c.c.J(sys)
		if math.Abs(j-c.wantJ)/c.wantJ > 0.02 {
			t.Errorf("%s: J = %.3f, want ≈ %.3f", c.name, j, c.wantJ)
		}
		// I = D when cell sizes match (paper's observation).
		if math.Abs(c.c.I(sys)-d) > 1e-6 {
			t.Errorf("%s: I = %v != D = %v", c.name, c.c.I(sys), d)
		}
	}
}

func TestBTreePaperExample(t *testing.T) {
	// "for a document collection with 100,000 distinct terms, the B+tree
	// takes about 220 pages of size 4KB".
	c := Collection{T: 100000}
	if got := c.Bt(baseSys()); math.Abs(got-219.7) > 0.5 {
		t.Errorf("Bt = %v, want ≈ 220", got)
	}
}

func TestOverlapFormula(t *testing.T) {
	cases := []struct {
		t1, t2 int64
		want   float64
	}{
		{100, 100, 0.8},      // equal: 0.8·T1/T2 = 0.8
		{50, 100, 0.4},       // T1 ≤ T2: 0.8·T1/T2
		{150, 100, 0.8},      // T2 < T1 < 5T2
		{499, 100, 0.8},      // still in the middle band
		{500, 100, 0.8},      // T1 ≥ 5T2: 1 − T2/T1 = 0.8 (continuous here)
		{1000, 100, 0.9},     // 1 − 100/1000
		{100000, 100, 0.999}, // approaches 1
		{0, 100, 0},          // degenerate
		{100, 0, 0},          // degenerate
	}
	for _, c := range cases {
		if got := Overlap(c.t1, c.t2); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Overlap(%d,%d) = %v, want %v", c.t1, c.t2, got, c.want)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	in := Input{C1: wsj, C2: fr}.normalize()
	if in.InvOnC1 != wsj || in.InvOnC2 != fr {
		t.Error("inverted-file stats should default to collections")
	}
	if in.Q != Overlap(wsj.T, fr.T) {
		t.Errorf("Q = %v, want derived %v", in.Q, Overlap(wsj.T, fr.T))
	}
	in2 := Input{C1: wsj, C2: fr, Q: 0.5, InvOnC2: doe}.normalize()
	if in2.Q != 0.5 || in2.InvOnC2 != doe {
		t.Error("explicit values overwritten")
	}
}

func TestHHNLBatchPaperFormula(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	in := Input{C1: wsj, C2: wsj}
	x := HHNLBatch(in, sys, q)
	want := (float64(sys.B) - math.Ceil(wsj.S(sys))) /
		(wsj.S(sys) + 4*20/4096.0)
	if math.Abs(x-want) > 1e-9 {
		t.Errorf("X = %v, want %v", x, want)
	}
	if x < 1 {
		t.Errorf("X = %v < 1 at base memory", x)
	}
}

func TestHHNLSeqStructure(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	in := Input{C1: wsj, C2: wsj}
	x := HHNLBatch(in, sys, q)
	want := wsj.D(sys) + math.Ceil(float64(wsj.N)/x)*wsj.D(sys)
	if got := HHNLSeq(in, sys, q); math.Abs(got-want) > 1e-6 {
		t.Errorf("hhs = %v, want %v", got, want)
	}
}

func TestHHNLRandExceedsSeq(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	for _, c := range []Collection{wsj, fr, doe} {
		in := Input{C1: c, C2: c}
		hhs, hhr := HHNLSeq(in, sys, q), HHNLRand(in, sys, q)
		if hhr < hhs {
			t.Errorf("hhr %v < hhs %v for %+v", hhr, hhs, c)
		}
	}
}

func TestHHNLSmallC2FitsEntirely(t *testing.T) {
	// N2 < X: the whole outer collection fits; the random surcharge uses
	// the block formula.
	sys := baseSys()
	q := baseQ()
	small := Collection{N: 50, K: 300, T: 9000}
	in := Input{C1: wsj, C2: small}
	hhs := HHNLSeq(in, sys, q)
	if math.IsInf(hhs, 1) {
		t.Fatal("hhs infeasible")
	}
	// One scan of C1 suffices.
	want := small.D(sys) + wsj.D(sys)
	if math.Abs(hhs-want) > 1e-6 {
		t.Errorf("hhs = %v, want %v", hhs, want)
	}
	hhr := HHNLRand(in, sys, q)
	if hhr <= hhs {
		t.Errorf("hhr %v should exceed hhs %v", hhr, hhs)
	}
}

func TestHHNLInfeasible(t *testing.T) {
	sys := System{B: 1, P: 4096, Alpha: 5}
	in := Input{C1: fr, C2: fr} // one FR document needs 2 pages
	if got := HHNLSeq(in, sys, baseQ()); !math.IsInf(got, 1) {
		t.Errorf("hhs = %v, want +Inf", got)
	}
	if got := HHNLRand(in, sys, baseQ()); !math.IsInf(got, 1) {
		t.Errorf("hhr = %v, want +Inf", got)
	}
}

func TestHVNLBufferEntries(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	in := Input{C1: wsj, C2: wsj}.normalize()
	x := HVNLBufferEntries(in, sys, q)
	want := math.Floor((float64(sys.B) - math.Ceil(wsj.S(sys)) - wsj.Bt(sys) -
		4*float64(wsj.N)*0.1/4096) / (wsj.J(sys) + 3.0/4096))
	if x != want {
		t.Errorf("X = %v, want %v", x, want)
	}
}

func TestHVNLRegimes(t *testing.T) {
	q := baseQ()
	small := Collection{N: 100, K: 50, T: 2000}

	// Regime 1: memory holds the whole inverted file (X ≥ T1).
	bigSys := System{B: 200000, P: 4096, Alpha: 5}
	in := Input{C1: small, C2: small}
	hvs := HVNLSeq(in, bigSys, q)
	seqAll := small.D(bigSys) + small.I(bigSys) + small.Bt(bigSys)
	needed := float64(small.T) * 0.8 * math.Ceil(small.J(bigSys)) * 5
	randNeeded := small.D(bigSys) + needed + small.Bt(bigSys)
	want := math.Min(seqAll, randNeeded)
	if math.Abs(hvs-want) > 1e-6 {
		t.Errorf("regime 1 hvs = %v, want %v", hvs, want)
	}

	// WSJ self join walks all three regimes as B grows: X < T2·q at the
	// base B (regime 3), T2·q ≤ X < T1 around B ≈ 35000 (regime 2),
	// X ≥ T1 beyond B ≈ 41000 (regime 1). Costs must strictly improve
	// from regime 3 to regime 2.
	wsjIn := Input{C1: wsj, C2: wsj}
	r3 := HVNLSeq(wsjIn, System{B: 1000, P: 4096, Alpha: 5}, q)
	r2 := HVNLSeq(wsjIn, System{B: 35000, P: 4096, Alpha: 5}, q)
	r1 := HVNLSeq(wsjIn, System{B: 60000, P: 4096, Alpha: 5}, q)
	if math.IsInf(r3, 1) || math.IsInf(r2, 1) || math.IsInf(r1, 1) {
		t.Fatalf("unexpected infeasible: r3=%v r2=%v r1=%v", r3, r2, r1)
	}
	if !(r3 > r2) {
		t.Errorf("regime 3 cost %v should exceed regime 2 cost %v", r3, r2)
	}
	if r1 > r2+1e-6 {
		t.Errorf("regime 1 cost %v should not exceed regime 2 cost %v", r1, r2)
	}
}

func TestHVNLInfeasible(t *testing.T) {
	sys := System{B: 2, P: 4096, Alpha: 5}
	in := Input{C1: wsj, C2: wsj}
	if got := HVNLSeq(in, sys, baseQ()); !math.IsInf(got, 1) {
		t.Errorf("hvs = %v, want +Inf", got)
	}
	if got := HVNLRand(in, sys, baseQ()); !math.IsInf(got, 1) {
		t.Errorf("hvr = %v, want +Inf", got)
	}
}

func TestHVNLRandAtLeastSeq(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	for _, c1 := range []Collection{wsj, fr, doe} {
		for _, c2 := range []Collection{wsj, fr, doe} {
			in := Input{C1: c1, C2: c2}
			hvs, hvr := HVNLSeq(in, sys, q), HVNLRand(in, sys, q)
			if hvr < hvs-1e-9 {
				t.Errorf("hvr %v < hvs %v for C1=%+v C2=%+v", hvr, hvs, c1, c2)
			}
		}
	}
}

func TestVVMPartitions(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	// WSJ self join: SM = 4·0.1·98736²/4096 pages ≈ 952k pages >> B.
	in := Input{C1: wsj, C2: wsj}
	parts := VVMPartitions(in, sys, q)
	sm := 4 * 0.1 * float64(wsj.N) * float64(wsj.N) / 4096
	m := float64(sys.B) - 2*math.Ceil(wsj.J(sys))
	if parts != math.Ceil(sm/m) {
		t.Errorf("partitions = %v, want %v", parts, math.Ceil(sm/m))
	}
	// A tiny pair needs exactly one pass.
	tiny := Collection{N: 10, K: 100, T: 500}
	if got := VVMPartitions(Input{C1: tiny, C2: tiny}, sys, q); got != 1 {
		t.Errorf("tiny partitions = %v, want 1", got)
	}
}

func TestVVMSeqAndRand(t *testing.T) {
	sys := baseSys()
	q := baseQ()
	in := Input{C1: fr, C2: fr}
	parts := VVMPartitions(in, sys, q)
	wantSeq := 2 * fr.I(sys) * parts
	if got := VVMSeq(in, sys, q); math.Abs(got-wantSeq) > 1e-6 {
		t.Errorf("vvs = %v, want %v", got, wantSeq)
	}
	wantRand := 2 * math.Min(fr.I(sys), float64(fr.T)) * 5 * parts
	if got := VVMRand(in, sys, q); math.Abs(got-wantRand) > 1e-6 {
		t.Errorf("vvr = %v, want %v", got, wantRand)
	}
}

func TestVVMInfeasible(t *testing.T) {
	sys := System{B: 1, P: 4096, Alpha: 5}
	in := Input{C1: fr, C2: fr}
	if got := VVMSeq(in, sys, baseQ()); !math.IsInf(got, 1) {
		t.Errorf("vvs = %v, want +Inf", got)
	}
	if got := VVMRand(in, sys, baseQ()); !math.IsInf(got, 1) {
		t.Errorf("vvr = %v, want +Inf", got)
	}
}

func TestFindingHVNLWinsOnSmallSelections(t *testing.T) {
	// Paper finding 2: with a very small participating C2 (m ≲ 100),
	// HVNL has a very good chance to outperform the others.
	sys := baseSys()
	q := baseQ()
	m := int64(20)
	sub := Collection{N: m, K: wsj.K, T: int64(hvnlGrowth(wsj, float64(m)))}
	in := Input{C1: wsj, C2: sub, InvOnC1: wsj, InvOnC2: wsj, C2Random: true}
	alg, ests := Choose(in, sys, q)
	if alg != AlgHVNL {
		t.Errorf("Choose = %v (estimates %+v), want HVNL", alg, ests)
	}
}

func TestFindingVVMWinsOnFewLargeDocs(t *testing.T) {
	// Paper finding 3: few documents, large collection size (N1·N2 <
	// 10000·B, collections too large for memory) favors VVM.
	sys := baseSys()
	q := baseQ()
	// FR shrunk 64×: 409 docs of 65088 terms each (Group 5 transform).
	few := Collection{N: fr.N / 64, K: fr.K * 64, T: fr.T}
	in := Input{C1: few, C2: few}
	alg, ests := Choose(in, sys, q)
	if alg != AlgVVM {
		t.Errorf("Choose = %v (estimates %+v), want VVM", alg, ests)
	}
}

func TestFindingHHNLWinsOtherwise(t *testing.T) {
	// Paper finding 4: in most other cases plain HHNL performs best —
	// e.g. the DOE self join at base parameters.
	sys := baseSys()
	q := baseQ()
	in := Input{C1: doe, C2: doe}
	alg, ests := Choose(in, sys, q)
	if alg != AlgHHNL {
		t.Errorf("Choose = %v (estimates %+v), want HHNL", alg, ests)
	}
}

func TestEstimateAllShape(t *testing.T) {
	ests := EstimateAll(Input{C1: wsj, C2: doe}, baseSys(), baseQ())
	if len(ests) != 3 {
		t.Fatalf("estimates = %v", ests)
	}
	seen := map[Algorithm]bool{}
	for _, e := range ests {
		seen[e.Algorithm] = true
		if e.Seq <= 0 || e.Rand <= 0 {
			t.Errorf("%v: non-positive cost %+v", e.Algorithm, e)
		}
	}
	if !seen[AlgHHNL] || !seen[AlgHVNL] || !seen[AlgVVM] {
		t.Errorf("missing algorithms: %v", ests)
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgHHNL.String() != "HHNL" || AlgHVNL.String() != "HVNL" || AlgVVM.String() != "VVM" {
		t.Error("names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown name empty")
	}
}

func randomCollection(r *rand.Rand) Collection {
	k := float64(r.Intn(1000) + 10)
	n := int64(r.Intn(200000) + 100)
	minT := int64(k) + 1
	return Collection{N: n, K: k, T: minT + int64(r.Intn(300000))}
}

// Property: the HHNL and HVNL random-variant costs are at least their
// sequential variants (α ≥ 1), and all costs are positive or infeasible.
// VVM is excluded by design: the paper's vvr charges α per *entry*
// (min{I,T} random I/Os), so with multi-page entries and small α the
// formula can dip below vvs — a quirk of the paper's own formula that
// TestVVMSeqAndRand pins down exactly.
func TestQuickRandAtLeastSeq(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := System{B: int64(r.Intn(50000) + 100), P: 4096, Alpha: 1 + 9*r.Float64()}
		q := Query{Lambda: int64(r.Intn(50) + 1), Delta: r.Float64()*0.5 + 0.01}
		in := Input{C1: randomCollection(r), C2: randomCollection(r)}
		pairs := [][2]float64{
			{HHNLSeq(in, sys, q), HHNLRand(in, sys, q)},
			{HVNLSeq(in, sys, q), HVNLRand(in, sys, q)},
		}
		for _, p := range pairs {
			seq, rnd := p[0], p[1]
			if math.IsInf(seq, 1) != math.IsInf(rnd, 1) {
				return false
			}
			if math.IsInf(seq, 1) {
				continue
			}
			if seq <= 0 || rnd < seq-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: costs are monotone in α for fixed inputs.
func TestQuickMonotoneInAlpha(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := System{B: int64(r.Intn(30000) + 500), P: 4096, Alpha: 2}
		sysHi := sys
		sysHi.Alpha = 8
		q := baseQ()
		in := Input{C1: randomCollection(r), C2: randomCollection(r)}
		fns := []func(Input, System, Query) float64{HHNLRand, HVNLRand, VVMRand, HHNLSeq, VVMSeq}
		for _, fn := range fns {
			lo, hi := fn(in, sys, q), fn(in, sysHi, q)
			if math.IsInf(lo, 1) || math.IsInf(hi, 1) {
				continue
			}
			if hi < lo-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: VVM partitions never decrease when memory shrinks, and more
// memory never makes any sequential cost worse.
func TestQuickMonotoneInMemory(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := baseQ()
		in := Input{C1: randomCollection(r), C2: randomCollection(r)}
		prevCosts := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
		for _, b := range []int64{100, 1000, 10000, 100000} {
			sys := System{B: b, P: 4096, Alpha: 5}
			costs := [3]float64{HHNLSeq(in, sys, q), HVNLSeq(in, sys, q), VVMSeq(in, sys, q)}
			for i := range costs {
				if costs[i] > prevCosts[i]+1e-6 {
					return false
				}
			}
			prevCosts = costs
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Choose always returns the minimum sequential estimate.
func TestQuickChooseIsArgmin(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := System{B: int64(r.Intn(50000) + 100), P: 4096, Alpha: 5}
		q := baseQ()
		in := Input{C1: randomCollection(r), C2: randomCollection(r)}
		alg, ests := Choose(in, sys, q)
		var chosen float64
		minSeq := math.Inf(1)
		for _, e := range ests {
			if e.Algorithm == alg {
				chosen = e.Seq
			}
			if e.Seq < minSeq {
				minSeq = e.Seq
			}
		}
		return chosen == minSeq || (math.IsInf(chosen, 1) && math.IsInf(minSeq, 1))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestRecall pins the S-curve's shape and boundary values.
func TestRecall(t *testing.T) {
	if got := Recall(16, 2, 0); got != 0 {
		t.Errorf("recall at s=0: %v", got)
	}
	if got := Recall(16, 2, 1); got != 1 {
		t.Errorf("recall at s=1: %v", got)
	}
	// Monotone in s.
	prev := -1.0
	for s := 0.05; s < 1; s += 0.05 {
		r := Recall(16, 2, s)
		if r <= prev {
			t.Fatalf("recall not increasing at s=%.2f", s)
		}
		if r < 0 || r > 1 {
			t.Fatalf("recall out of range at s=%.2f: %v", s, r)
		}
		prev = r
	}
	// More bands raise recall; more rows lower it (fixed moderate s).
	if Recall(32, 2, 0.5) <= Recall(8, 2, 0.5) {
		t.Error("more bands did not raise recall")
	}
	if Recall(16, 4, 0.5) >= Recall(16, 2, 0.5) {
		t.Error("more rows did not lower recall")
	}
	// One band, one row: recall equals s exactly.
	if got := Recall(1, 1, 0.3); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("b=r=1 recall = %v, want 0.3", got)
	}
	// A degenerate shape generates no candidates at all.
	if Recall(0, 2, 0.5) != 0 || Recall(16, 0, 0.5) != 0 || Recall(-1, -1, 1) != 0 {
		t.Error("bands <= 0 or rows <= 0 must give recall 0")
	}
}
