package linalg

// avx2 and fma are the one CPUID check of the tree: whether the CPU runs
// AVX2 code and the operating system saves the YMM registers across
// context switches, and whether it also runs the FMA3 instructions. They
// are read once, at package start-up; nothing else chooses a kernel.
var avx2, fma = cpuFeatures()

// HasAVX2 reports whether this amd64 CPU runs the AVX2 kernels
// (quadFormQuads here, the J_fit interval's in package gaussian).
func HasAVX2() bool { return avx2 }

// HasFMA reports whether this amd64 CPU runs the AVX2 kernels and the FMA3
// instructions in them (the log-sum-exp kernel in package gaussian).
func HasFMA() bool { return avx2 && fma }

// cpuFeatures runs CPUID and XGETBV; see avx2.
func cpuFeatures() (avx2OK, fmaOK bool)

// quadFormQuads runs QuadFormRows' order-4 loop on the records of xs four
// at a time, records p…p+3 in the four lanes of AVX2 registers, for the
// packed order-4 factor at l (10 entries) and the mean at mean (4), and
// writes each record's value to dst[p]. It keeps the Go loop's operations
// in the Go loop's order and uses no fused multiply-add, so every value is
// bit-identical to quadFormRows4's. It returns how many records it scored:
// it stops before a tail of fewer than four records and before the first
// quad that holds a record whose length is not 4 (it reads no such record).
//
//go:noescape
func quadFormQuads(l, mean *float64, xs []Vector, dst *float64) int
