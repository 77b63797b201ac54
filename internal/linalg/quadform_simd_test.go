package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// checkQuadFormParity asserts that QuadFormRows, which takes the
// four-record kernel where it can, writes the bits of the Go loop.
func checkQuadFormParity(t testing.TB, what string, c *Cholesky, xs []Vector, mean Vector) {
	t.Helper()
	got := make([]float64, len(xs))
	want := make([]float64, len(xs))
	c.QuadFormRows(xs, mean, nil, got)
	c.quadFormRows4(xs, mean, want)
	for p := range want {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("%s record %d x=%v mean=%v: kernel %v (%#x), Go loop %v (%#x)",
				what, p, xs[p], mean, got[p], math.Float64bits(got[p]), want[p], math.Float64bits(want[p]))
		}
	}
}

// kernelScored returns how many leading records of xs quadFormQuads scores
// in one call.
func kernelScored(c *Cholesky, xs []Vector, mean Vector) int {
	dst := make([]float64, len(xs)+1)
	return quadFormQuads(&c.l[0], &mean[0], xs, &dst[0])
}

// extremeFactor is an order-4 factor whose diagonal entries are powers of
// two spread over [2⁻²⁰⁰, 2²⁰⁰], each row's off-diagonal entries on its
// diagonal's scale.
func extremeFactor(rng *rand.Rand) *Cholesky {
	c := &Cholesky{n: 4, l: make([]float64, 10)}
	for i := 0; i < 4; i++ {
		d := math.Ldexp(1, rng.Intn(401)-200)
		for k := 0; k < i; k++ {
			c.set(i, k, rng.NormFloat64()*d)
		}
		c.set(i, i, d)
	}
	return c
}

// specialCoords are the values a lane must carry through as the Go loop
// does: two NaN payloads (so a record can hold NaNs that differ, and the
// operand order of each add decides which one survives), ±Inf, ±0,
// subnormals and ±MaxFloat64.
var specialCoords = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_0000_0000_beef), math.Float64frombits(0xfff4_0000_0000_0001),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 1, -2.5,
}

// TestQuadFormRowsSIMDMatchesGo pins the four-record kernel of
// QuadFormRows bit for bit to its Go loop at order 4: record counts 1–9
// and 127–129, in every lane position a record of length 3 (its backing
// array holds a fourth value) and one of length 5, records and means of
// NaN (two payloads), ±Inf, ±0, subnormal and ±MaxFloat64 coordinates, and
// factors whose diagonals run from 2⁻²⁰⁰ to 2²⁰⁰.
func TestQuadFormRowsSIMDMatchesGo(t *testing.T) {
	if !avx2 {
		t.Skip("no AVX2 kernel on this " + runtime.GOARCH + " CPU")
	}
	rng := rand.New(rand.NewSource(55))
	factors := func() []*Cholesky {
		decomposed, _ := CholeskyDecompose(randSPD(rng, 4))
		return []*Cholesky{decomposed, randFactor(rng, 4, false), randFactor(rng, 4, true), extremeFactor(rng)}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129} {
		for f, c := range factors() {
			what := fmt.Sprintf("n=%d factor %d", n, f)
			mean := randVec(rng, 4)
			xs := make([]Vector, n)
			for p := range xs {
				xs[p] = NewVector(4)
				for i := range xs[p] {
					xs[p][i] = mean[i] + rng.NormFloat64()*3
				}
			}
			if got := kernelScored(c, xs, mean); got != n&^3 {
				t.Fatalf("%s: the kernel scored %d records, want %d", what, got, n&^3)
			}
			checkQuadFormParity(t, what, c, xs, mean)
			for p := range xs {
				for i := range xs[p] {
					xs[p][i] = adversarialCoord(rng)
				}
			}
			checkQuadFormParity(t, what+" adversarial", c, xs, mean)
		}
	}

	// A record of length 3 or 5, in every lane position: the kernel stops
	// before its quad, and the Go loop scores it (reading the fourth value
	// a length-3 record's backing array holds, the first four of five).
	c, _ := CholeskyDecompose(randSPD(rng, 4))
	mean := randVec(rng, 4)
	data := make([]Vector, 16)
	for p := range data {
		data[p] = randVec(rng, 4)
	}
	for at := 0; at < 12; at++ {
		short := append([]Vector(nil), data...)
		arr := [4]float64{data[at][0], data[at][1], data[at][2], 7}
		short[at] = arr[:3]
		if got := kernelScored(c, short, mean); got != at&^3 {
			t.Fatalf("length-3 record at %d: the kernel scored %d records, want %d", at, got, at&^3)
		}
		checkQuadFormParity(t, fmt.Sprintf("length-3 record at %d", at), c, short, mean)
		long := append([]Vector(nil), data...)
		long[at] = Vector{data[at][0], data[at][1], data[at][2], data[at][3], 7}
		if got := kernelScored(c, long, mean); got != at&^3 {
			t.Fatalf("length-5 record at %d: the kernel scored %d records, want %d", at, got, at&^3)
		}
		checkQuadFormParity(t, fmt.Sprintf("length-5 record at %d", at), c, long, mean)
	}

	// Special values in every coordinate of every lane, alone and mixed,
	// against every kind of factor, and in the mean.
	for trial := 0; trial < 400; trial++ {
		for f, c := range factors() {
			mean := randVec(rng, 4)
			if trial%5 == 0 {
				mean[rng.Intn(4)] = specialCoords[rng.Intn(len(specialCoords))]
			}
			xs := make([]Vector, 8+rng.Intn(5))
			for p := range xs {
				xs[p] = randVec(rng, 4)
				for i := range xs[p] {
					if rng.Intn(3) == 0 {
						xs[p][i] = specialCoords[rng.Intn(len(specialCoords))]
					}
				}
			}
			if got := kernelScored(c, xs, mean); got != len(xs)&^3 {
				t.Fatalf("trial %d: the kernel scored %d records, want %d", trial, got, len(xs)&^3)
			}
			checkQuadFormParity(t, fmt.Sprintf("special values, trial %d factor %d", trial, f), c, xs, mean)
		}
	}
}

// FuzzQuadFormRowsSIMDMatchesGo drives the four-record kernel with fuzzed
// order-4 factors (diagonals 2⁻²⁰⁰…2²⁰⁰), means and records, whose
// coordinates raw writes over with arbitrary bits (NaN payloads, ±Inf, ±0,
// subnormals, huge values). Kernel and Go loop must agree bit for bit.
func FuzzQuadFormRowsSIMDMatchesGo(f *testing.F) {
	f.Add(int64(1), uint16(129), false, []byte(nil))
	f.Add(int64(2), uint16(7), true, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(int64(3), uint16(128), true, []byte{1, 2, 3, 4, 5, 6, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(int64(4), uint16(4), false, []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, extreme bool, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		c, _ := CholeskyDecompose(randSPD(rng, 4))
		if extreme {
			c = extremeFactor(rng)
		}
		mean := randVec(rng, 4)
		xs := make([]Vector, 1+int(n%300))
		for p := range xs {
			xs[p] = randVec(rng, 4)
		}
		for i := 0; i+8 <= len(raw); i += 8 {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[i+b]) << (8 * b)
			}
			v := math.Float64frombits(bits)
			if p := (i / 8 * 5) % (len(xs) + 1); p == len(xs) {
				mean[(i/8)%4] = v
			} else {
				xs[p][(i/8)%4] = v
			}
		}
		checkQuadFormParity(t, "fuzz", c, xs, mean)
	})
}
