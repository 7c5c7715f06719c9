package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpsFormulas(t *testing.T) {
	in := Input{C1: wsj, C2: doe}
	hh := HHNLOps(in)
	hv := HVNLOps(in)
	vv := VVMOps(in)
	if hh <= 0 || hv <= 0 || vv <= 0 {
		t.Fatalf("ops: hh=%v hv=%v vv=%v", hh, hv, vv)
	}
	// HHNL compares every pair against full documents and must dwarf the
	// posting-based algorithms on full collections.
	if hh < 100*hv || hh < 100*vv {
		t.Errorf("HHNL ops %v should dwarf hv=%v vv=%v", hh, hv, vv)
	}
	// Exact structure check for HHNL.
	want := float64(wsj.N) * float64(doe.N) * (wsj.K + doe.K)
	if hh != want {
		t.Errorf("HHNLOps = %v, want %v", hh, want)
	}
}

func TestOpsDegenerate(t *testing.T) {
	if got := HVNLOps(Input{C1: Collection{}, C2: wsj}); got != 0 {
		t.Errorf("HVNLOps with empty C1 = %v", got)
	}
	if got := VVMOps(Input{C1: wsj, C2: Collection{}}); got != 0 {
		t.Errorf("VVMOps with empty C2 = %v", got)
	}
}

func TestZeroParamsReproduceIOOnly(t *testing.T) {
	in := Input{C1: wsj, C2: wsj}
	sys := baseSys()
	q := baseQ()
	for _, alg := range []Algorithm{AlgHHNL, AlgHVNL, AlgVVM} {
		b := EstimateTotal(alg, in, sys, q, CPUParams{}, NetParams{})
		if b.CPU != 0 || b.Comm != 0 {
			t.Errorf("%v: cpu=%v comm=%v with zero params", alg, b.CPU, b.Comm)
		}
		var wantIO float64
		switch alg {
		case AlgHHNL:
			wantIO = HHNLSeq(in, sys, q)
		case AlgHVNL:
			wantIO = HVNLSeq(in, sys, q)
		case AlgVVM:
			wantIO = VVMSeq(in, sys, q)
		}
		if b.IO != wantIO || b.Total() != wantIO {
			t.Errorf("%v: io=%v total=%v, want %v", alg, b.IO, b.Total(), wantIO)
		}
	}
	// ChooseTotal with zero params equals the paper's Choose.
	algA, _ := Choose(in, sys, q)
	algB, _ := ChooseTotal(in, sys, q, CPUParams{}, NetParams{})
	if algA != algB {
		t.Errorf("ChooseTotal = %v, Choose = %v", algB, algA)
	}
}

func TestCPUCostFlipsTheChoice(t *testing.T) {
	// DOE self join at base parameters: HHNL wins on I/O alone, but its
	// N1·N2·(K1+K2) CPU term is orders of magnitude above the others,
	// so a slow-CPU configuration flips the choice away from HHNL.
	in := Input{C1: doe, C2: doe}
	sys := baseSys()
	q := baseQ()
	ioOnly, _ := Choose(in, sys, q)
	if ioOnly != AlgHHNL {
		t.Fatalf("precondition: I/O-only choice = %v, want HHNL", ioOnly)
	}
	slow := CPUParams{OpsPerPageRead: 1000} // very slow CPU relative to I/O
	withCPU, bds := ChooseTotal(in, sys, q, slow, NetParams{})
	if withCPU == AlgHHNL {
		t.Errorf("CPU-aware choice still HHNL: %+v", bds)
	}
}

func TestCommCostStructure(t *testing.T) {
	in := Input{C1: wsj, C2: doe}
	sys := baseSys()
	q := baseQ()
	net := NetParams{CostPerPage: 2, C1Remote: true, C2Remote: true}

	hh := EstimateTotal(AlgHHNL, in, sys, q, CPUParams{}, net)
	wantHH := (wsj.D(sys) + doe.D(sys)) * 2
	if math.Abs(hh.Comm-wantHH) > 1e-6 {
		t.Errorf("HHNL comm = %v, want %v", hh.Comm, wantHH)
	}

	vv := EstimateTotal(AlgVVM, in, sys, q, CPUParams{}, net)
	wantVV := (wsj.I(sys) + doe.I(sys)) * 2
	if math.Abs(vv.Comm-wantVV) > 1e-6 {
		t.Errorf("VVM comm = %v, want %v", vv.Comm, wantVV)
	}

	// HVNL ships only the needed C1 entries, which is capped by the full
	// inverted file.
	hv := EstimateTotal(AlgHVNL, in, sys, q, CPUParams{}, net)
	maxHV := (doe.D(sys) + wsj.I(sys) + wsj.Bt(sys)) * 2
	if hv.Comm <= 0 || hv.Comm > maxHV+1e-6 {
		t.Errorf("HVNL comm = %v, want in (0, %v]", hv.Comm, maxHV)
	}

	// Only-one-site-remote charges less.
	half := EstimateTotal(AlgHHNL, in, sys, q, CPUParams{}, NetParams{CostPerPage: 2, C1Remote: true})
	if half.Comm >= hh.Comm {
		t.Errorf("one-remote comm %v >= both-remote %v", half.Comm, hh.Comm)
	}
}

func TestCommCostFavorsHVNLWithRemoteC1(t *testing.T) {
	// A small selected C2 joined against a remote C1: HVNL ships only
	// the needed entries while HHNL must ship the whole collection, so
	// expensive links push the choice to HVNL even more strongly. FR's
	// large K makes the HVNL window narrow, so use a very small m.
	m := int64(5)
	sub := Collection{N: m, K: fr.K, T: int64(hvnlGrowth(fr, float64(m)))}
	in := Input{C1: fr, C2: sub, InvOnC1: fr, InvOnC2: fr, C2Random: true}
	sys := baseSys()
	q := baseQ()
	net := NetParams{CostPerPage: 10, C1Remote: true}
	alg, bds := ChooseTotal(in, sys, q, CPUParams{}, net)
	if alg != AlgHVNL {
		t.Errorf("choice = %v, want HVNL (%+v)", alg, bds)
	}
}

// Property: totals decompose exactly and are monotone in both knob
// settings.
func TestQuickExtendedMonotone(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := Input{C1: randomCollection(r), C2: randomCollection(r)}
		sys := System{B: int64(r.Intn(50000) + 100), P: 4096, Alpha: 5}
		q := baseQ()
		cpuLo := CPUParams{OpsPerPageRead: 1e9}
		cpuHi := CPUParams{OpsPerPageRead: 1e4}
		netLo := NetParams{CostPerPage: 0.1, C1Remote: true, C2Remote: true}
		netHi := NetParams{CostPerPage: 10, C1Remote: true, C2Remote: true}
		for _, alg := range []Algorithm{AlgHHNL, AlgHVNL, AlgVVM} {
			lo := EstimateTotal(alg, in, sys, q, cpuLo, netLo)
			hi := EstimateTotal(alg, in, sys, q, cpuHi, netHi)
			if math.IsInf(lo.IO, 1) {
				continue
			}
			if lo.Total() != lo.IO+lo.CPU+lo.Comm {
				return false
			}
			if hi.CPU < lo.CPU || hi.Comm < lo.Comm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
