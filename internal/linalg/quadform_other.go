//go:build !amd64

package linalg

// avx2 reports whether quadFormQuads scores records on this architecture.
const avx2 = false

// HasAVX2 reports whether this CPU runs the AVX2 kernels: never off amd64.
func HasAVX2() bool { return false }

// HasFMA reports whether this CPU runs the FMA3 kernels: never off amd64.
func HasFMA() bool { return false }

// quadFormQuads scores no record here; QuadFormRows never calls it.
func quadFormQuads(l, mean *float64, xs []Vector, dst *float64) int { return 0 }
