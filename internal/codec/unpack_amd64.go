package codec

// HaveVector reports whether the CPU has AVX2 and the operating system
// saves the YMM registers (CPUID leaf 1: OSXSAVE and AVX; XCR0: XMM and
// YMM state; CPUID leaf 7: AVX2): the one probe every vector kernel of
// the module is gated on.
func HaveVector() bool {
	if most, _, _, _ := cpuid(0, 0); most < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// unpackVector is the AVX2 unpack: it decodes len(out)/4 groups of four
// cells from body into out and reports whether their numbers strictly
// ascend. len(out) must be a positive multiple of four, and body must hold
// the last group's vectorWindow bytes: at least 5·len(out)+6.
//
//go:noescape
func unpackVector(out []Cell, body []byte) (ascending bool)

func cpuid(eax, ecx uint32) (a, b, c, d uint32)

func xgetbv() uint32
