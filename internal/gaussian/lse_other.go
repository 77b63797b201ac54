//go:build !amd64

package gaussian

// lseKernel reports whether lseQuads reduces rows on this architecture.
const lseKernel = false

// lseQuads reduces no row here; lseRows never calls it.
func lseQuads(logp *float64, k, quads, j int, w *lseWork) (next, handed int) { return k, 0 }

// expLanes computes no lane here.
func expLanes(x *[4]float64) int { return 0 }

// mathExpFMA reports whether math.Exp runs its amd64 FMA sequence: never
// off amd64.
func mathExpFMA() bool { return false }
