package gaussian

import (
	"math"

	"cludistream/internal/linalg"
)

// lseKernel reports whether lseQuads reduces rows here: on an amd64 CPU
// with AVX2 and FMA3, by linalg's one CPUID check, whose math.Exp runs its
// FMA sequence (math turns it off, for one, under GODEBUG=cpu.fma=off),
// the one sequence lseQuads runs.
var lseKernel = linalg.HasFMA() && mathExpFMA()

// expProbe holds inputs at which the two sequences of math's amd64 Exp
// round differently, with the FMA sequence's result bits.
var expProbe = [...]struct {
	x    float64
	bits uint64
}{
	{-2.375, 0x3fb7cfcc2d36c511},
	{-3.75, 0x3f981509354f0d29},
	{-5.375, 0x3f72f7dec82ce361},
	{-5.75, 0x3f6a12c66dcd95d1},
}

// mathExpFMA reports whether math.Exp returns its FMA sequence's bits at
// every expProbe input.
func mathExpFMA() bool {
	for _, c := range expProbe {
		if math.Float64bits(math.Exp(c.x)) != c.bits {
			return false
		}
	}
	return true
}

// lsePack[m] holds the VPERMD dword indices that move the lanes set in
// the 4-bit mask m to the front, in lane order: lseQuads packs the lanes
// that need LogAdd's formula with them.
var lsePack = func() (t [16][8]uint32) {
	for m := range t {
		i := 0
		for _, set := range []bool{true, false} {
			for l := 0; l < 4; l++ {
				if (m>>l&1 == 1) == set {
					t[m][i], t[m][i+1] = uint32(2*l), uint32(2*l+1)
					i += 2
				}
			}
		}
	}
	return t
}()

// lseQuads runs lseRows' LogAdd chains for rows 0…4·quads−1 of the
// row-major logp (k entries a row) in w.acc, which the caller sets to −Inf
// before the first call. It sweeps component-major from column j: step j
// of every row before step j + 1. The −Inf, swap and skip rules run for
// four rows at a time in the four lanes of AVX2 registers; the lanes that
// need the formula a + log1p(e^d) are packed, and it runs four of them at
// a time with math.Exp's FMA sequence and math.log1p's operations in their
// order, so each step is bit-identical to LogAdd. It returns next = k when
// done; otherwise it has finished column next − 1 except for the handed
// rows listed in w.handed, whose lane needed a path it does not run (NaN,
// a denormal or zero e^d, log1p's f = 0 path) and whose chain it left
// unchanged for the caller to step with LogAdd before it resumes at next.
//
//go:noescape
func lseQuads(logp *float64, k, quads, j int, w *lseWork) (next, handed int)

// expLanes runs lseQuads' Exp block on the four values of x in place and
// returns the mask of lanes it computed as math.Exp does (bit i for lane
// i); the others hold no meaningful value.
//
//go:noescape
func expLanes(x *[4]float64) int
