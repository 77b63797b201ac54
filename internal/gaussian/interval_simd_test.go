package gaussian

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"cludistream/internal/linalg"
)

// checkIntervalParity asserts that AvgLogLikelihoodInterval, which takes
// the four-record kernel where it can, returns the bits of its Go path.
func checkIntervalParity(t testing.TB, what string, m *Mixture, data []linalg.Vector, s *BatchScratch) {
	t.Helper()
	lo, hi, ok := m.AvgLogLikelihoodInterval(data, s)
	glo, ghi, gok := m.avgLogLikelihoodInterval(data, s, false)
	if math.Float64bits(lo) != math.Float64bits(glo) || math.Float64bits(hi) != math.Float64bits(ghi) || ok != gok {
		t.Fatalf("%s: kernel (%v, %v, %v) != Go path (%v, %v, %v)", what, lo, hi, ok, glo, ghi, gok)
	}
}

// kernelScored returns how many leading records of data intervalQuads
// scores for m in one call, and the sums it reaches: −1 when it does not
// serve m.
func kernelScored(m *Mixture, data []linalg.Vector, s *BatchScratch) (int, [2]float64) {
	var sums [2]float64
	s.ensure(m.Dim(), m.K())
	tab := m.intervalTable(m.intervalA(), s)
	if tab == nil {
		return -1, sums
	}
	return intervalQuads(tab, m.K(), data, &sums), sums
}

// withTerms is m with its log-weights and log-norms replaced, so a test can
// place exact ties and signed zeros among the terms b_j.
func withTerms(m *Mixture, logW, logNorm []float64) *Mixture {
	cs := make([]*Component, len(m.comps))
	for j, c := range m.comps {
		cc := *c
		cc.logNorm = logNorm[j]
		cs[j] = &cc
	}
	return &Mixture{weights: m.weights, comps: cs, logW: logW}
}

// illConditioned4 is a d = 4 component whose factor is too ill-conditioned
// for the division-free loop (eigenvalues 10⁴ … 10⁻⁶, random axes).
func illConditioned4(t testing.TB, rng *rand.Rand) *Component {
	t.Helper()
	var basis []linalg.Vector
	for len(basis) < 4 {
		v := linalg.NewVector(4)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, b := range basis {
			var dot float64
			for i := range v {
				dot += v[i] * b[i]
			}
			for i := range v {
				v[i] -= dot * b[i]
			}
		}
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
		basis = append(basis, v)
	}
	cov := linalg.NewSym(4)
	for k, b := range basis {
		cov.AddOuterScaled(math.Pow(10, 4-10*float64(k)/3), b)
	}
	c, err := NewComponent(linalg.NewVector(4), cov, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.chol.Bound4(); ok {
		t.Fatal("the ill-conditioned factor takes the division-free loop")
	}
	return c
}

// TestIntervalSIMDMatchesGo pins the four-record kernel bit for bit to
// the Go path of AvgLogLikelihoodInterval: K = 1..16, zero-weight
// components, record counts 1..8, 127 and 1567, exact ties and signed
// zeros among the terms, and in every lane position a NaN or infinite
// coordinate, a record far enough out for the e > 1 hand-back, a record of
// length 3 the kernel must not read and one of length 5; and d = 6 and
// ill-conditioned factors, which the kernel must not serve.
func TestIntervalSIMDMatchesGo(t *testing.T) {
	if !intervalKernel {
		t.Skip("no AVX2 kernel on this " + runtime.GOARCH + " CPU")
	}
	rng := rand.New(rand.NewSource(53))
	s := NewBatchScratch()
	for k := 1; k <= 16; k++ {
		for _, sep := range []float64{0.5, 3, 30} {
			m := randSepMixture(rng, k, 4, sep)
			if k > 2 && sep == 3 {
				w := m.Weights()
				w[0], w[k-1] = 0, 0
				m = MustMixture(w, m.comps)
			}
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 127, 1567} {
				what := fmt.Sprintf("K=%d sep=%v n=%d", k, sep, n)
				data := m.SampleN(rng, n)
				if got, _ := kernelScored(m, data, s); got != n&^3 {
					t.Fatalf("%s: the kernel scored %d records, want %d", what, got, n&^3)
				}
				checkIntervalParity(t, what, m, data, s)
				far := append([]linalg.Vector(nil), data...)
				for i := range far {
					if rng.Intn(3) == 0 {
						far[i] = linalg.Vector{rng.NormFloat64() * 1e3 * sep, 0, rng.NormFloat64() * 1e4, -1e2}
					}
				}
				checkIntervalParity(t, what+" far", m, far, s)
			}
		}
	}

	// e > 1: |top| above 4·10¹² in one lane hands the quad back, and the
	// Go path adds top + e + log K for it.
	m := randSepMixture(rng, 5, 4, 3)
	data := m.SampleN(rng, 40)
	for _, at := range []int{0, 1, 2, 3, 17, 38, 39} {
		bad := append([]linalg.Vector(nil), data...)
		bad[at] = linalg.Vector{3e7, -2e7, 1e7, 5e6}
		if got, _ := kernelScored(m, bad, s); got != at&^3 {
			t.Fatalf("far record at %d: the kernel scored %d records, want %d", at, got, at&^3)
		}
		checkIntervalParity(t, fmt.Sprintf("far record at %d", at), m, bad, s)
		if _, _, ok := m.AvgLogLikelihoodInterval(bad, s); !ok {
			t.Fatalf("far record at %d: interval refused", at)
		}
	}

	// A NaN or infinite coordinate in any lane: every path refuses.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 1, 2, 3, 22, 39} {
			for coord := 0; coord < 4; coord++ {
				bad := append([]linalg.Vector(nil), data...)
				x := append(linalg.Vector(nil), data[at]...)
				x[coord] = v
				bad[at] = x
				checkIntervalParity(t, fmt.Sprintf("%v at record %d coord %d", v, at, coord), m, bad, s)
				if _, _, ok := m.AvgLogLikelihoodInterval(bad, s); ok {
					t.Fatalf("%v at record %d coord %d accepted", v, at, coord)
				}
			}
		}
	}

	// Exact ties: duplicated components tie in every term, and the first
	// maximum alone leaves rest.
	base := randSepMixture(rng, 3, 4, 2)
	dup := MustMixture([]float64{1, 1, 1, 1, 1}, []*Component{base.comps[0], base.comps[1], base.comps[0], base.comps[2], base.comps[0]})
	checkIntervalParity(t, "duplicated components", dup, dup.SampleN(rng, 301), s)

	// Signed zeros: at x = μ every q is +0, so log w = ±0 and log-norm =
	// ±0 make the terms −0 and +0, which tie.
	mu := linalg.Vector{0.5, -1, 2, 0.25}
	zc := Spherical(mu, 1)
	zeros := MustMixture([]float64{1, 1, 1, 1}, []*Component{zc, zc, zc, zc})
	negZero := math.Copysign(0, -1)
	for _, terms := range [][2][]float64{
		{{negZero, 0, negZero, 0}, {negZero, 0, negZero, 0}},
		{{0, negZero, 0, negZero}, {0, negZero, negZero, 0}},
		{{negZero, negZero, negZero, negZero}, {negZero, negZero, negZero, negZero}},
	} {
		zm := withTerms(zeros, terms[0], terms[1])
		pts := []linalg.Vector{mu, mu, mu, {0.5, -1, 2, 1.25}, mu}
		if got, _ := kernelScored(zm, pts, s); got != 4 {
			t.Fatalf("signed zeros %v: the kernel scored %d records, want 4", terms, got)
		}
		checkIntervalParity(t, fmt.Sprintf("signed zeros %v", terms), zm, pts, s)
	}

	// A record of length 3 (its backing array holds a fourth value) is
	// never read, in any lane: the kernel stops before its quad, with the
	// sums of the records before it.
	for _, at := range []int{4, 5, 6, 7} {
		short := append([]linalg.Vector(nil), data...)
		arr := [4]float64{data[at][0], data[at][1], data[at][2], math.NaN()}
		short[at] = arr[:3]
		got, sums := kernelScored(m, short, s)
		_, want := kernelScored(m, short[:4], s)
		if got != 4 || sums != want {
			t.Fatalf("length-3 record at %d: the kernel scored %d records to %v, want 4 to %v", at, got, sums, want)
		}
	}
	for _, at := range []int{8, 9, 10, 11} {
		long := append([]linalg.Vector(nil), data...)
		long[at] = linalg.Vector{data[at][0], data[at][1], data[at][2], data[at][3], 7}
		if got, _ := kernelScored(m, long, s); got != 8 {
			t.Fatalf("length-5 record at %d: the kernel scored %d records, want 8", at, got)
		}
		checkIntervalParity(t, fmt.Sprintf("length-5 record at %d", at), m, long, s)
	}

	// Shapes the kernel does not serve.
	m6 := randSepMixture(rng, 5, 6, 3)
	if got, _ := kernelScored(m6, m6.SampleN(rng, 10), s); got != -1 {
		t.Fatal("the kernel serves d = 6")
	}
	checkIntervalParity(t, "d = 6", m6, m6.SampleN(rng, 200), s)
	comps := append([]*Component(nil), m.comps...)
	comps[2] = illConditioned4(t, rng)
	ill := MustMixture(m.Weights(), comps)
	if got, _ := kernelScored(ill, data, s); got != -1 {
		t.Fatal("the kernel serves an ill-conditioned weighted factor")
	}
	checkIntervalParity(t, "ill-conditioned factor", ill, ill.SampleN(rng, 200), s)
	w := m.Weights()
	w[2] = 0
	zeroIll := MustMixture(w, comps)
	if got, _ := kernelScored(zeroIll, data, s); got != len(data) {
		t.Fatalf("ill-conditioned zero-weight factor: the kernel scored %d records, want %d", got, len(data))
	}
	checkIntervalParity(t, "ill-conditioned zero-weight factor", zeroIll, data, s)
}

// TestIntervalTableReusedPerMixture pins the scratch's table memo: the
// same mixture finds its table laid out already (a value written into it
// survives the next call), another mixture — one of the same shape, one
// the kernel does not serve, then the first again — gets its own, and
// every interval stays bit-identical to one from a fresh scratch.
func TestIntervalTableReusedPerMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m1 := randSepMixture(rng, 5, 4, 3)
	m2 := randSepMixture(rng, 5, 4, 3)
	comps := append([]*Component(nil), m1.comps...)
	comps[2] = illConditioned4(t, rng)
	ill := MustMixture(m1.Weights(), comps)
	m6 := randSepMixture(rng, 5, 6, 3)
	data := m1.SampleN(rng, 403)
	data6 := m6.SampleN(rng, 403)

	s := NewBatchScratch()
	check := func(what string, m *Mixture, data []linalg.Vector) {
		t.Helper()
		lo, hi, ok := m.AvgLogLikelihoodInterval(data, s)
		wlo, whi, wok := m.AvgLogLikelihoodInterval(data, NewBatchScratch())
		if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) || ok != wok {
			t.Fatalf("%s: reused scratch (%v, %v, %v) != fresh scratch (%v, %v, %v)", what, lo, hi, ok, wlo, whi, wok)
		}
		if s.tabFor != m {
			t.Fatalf("%s: the scratch remembers another mixture", what)
		}
	}
	check("first mixture", m1, data)
	tab := m1.intervalTable(m1.intervalA(), s)
	if intervalKernel {
		if tab == nil {
			t.Fatal("the kernel does not serve the first mixture")
		}
		one := &unsafe.Slice(tab, intervalHead)[intervalLanes*3] // the header's 1
		*one = 2
		if again := m1.intervalTable(m1.intervalA(), s); again != tab || *one != 2 {
			t.Fatal("the same mixture's table was laid out again")
		}
		*one = 1
	}
	check("first mixture again", m1, data)
	check("second mixture", m2, data)
	check("ill-conditioned mixture", ill, data)
	if s.tabAt != nil {
		t.Fatal("the ill-conditioned mixture has a table")
	}
	check("ill-conditioned mixture again", ill, data)
	check("d = 6", m6, data6)
	check("first mixture after d = 6", m1, data)
	if intervalKernel && s.tabAt == nil {
		t.Fatal("the first mixture lost its table")
	}
}

// FuzzIntervalSIMDMatchesGo drives the four-record kernel with fuzzed
// mixtures and records: K up to 16, zero weights, duplicated components,
// and raw coordinate bits (NaN, ±Inf, ±0, huge) written over the sampled
// records. Kernel and Go path must agree bit for bit.
func FuzzIntervalSIMDMatchesGo(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(1567), 3.0, uint16(0), []byte(nil))
	f.Add(int64(2), uint8(1), uint16(3), 0.5, uint16(0), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(int64(3), uint8(16), uint16(127), 30.0, uint16(0x8421), []byte{1, 2, 3, 4, 5, 6, 7, 0x43})
	f.Add(int64(4), uint8(0x84), uint16(2), 1.0, uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n uint16, sep float64, zero uint16, raw []byte) {
		if !(sep > 1e-3 && sep < 1e6) {
			sep = 1
		}
		rng := rand.New(rand.NewSource(seed))
		m := randSepMixture(rng, 1+int(k&15), 4, sep)
		comps := m.comps
		if k&0x80 != 0 { // duplicates: every term of component 0 ties
			comps = append([]*Component(nil), comps...)
			for j := 1; j < len(comps); j += 2 {
				comps[j] = comps[0]
			}
		}
		w := m.Weights()
		var sum float64
		for j := range w {
			if zero&(1<<j) != 0 {
				w[j] = 0
			}
			sum += w[j]
		}
		if sum == 0 {
			w[0] = 1
		}
		m = MustMixture(w, comps)
		data := m.SampleN(rng, 1+int(n%2000))
		for i := 0; i+8 <= len(raw); i += 8 {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[i+b]) << (8 * b)
			}
			p := (i / 8 * 7) % len(data)
			x := append(linalg.Vector(nil), data[p]...)
			x[(i/8)%4] = math.Float64frombits(bits)
			data[p] = x
		}
		checkIntervalParity(t, "fuzz", m, data, NewBatchScratch())
	})
}

// BenchmarkAvgLogLikelihoodInterval is the J_fit interval's rung at the
// daemons' shape (d = 4, K = 5, one 1567-record chunk): the four-record
// kernel against the Go path, each at 0 allocations per call.
func BenchmarkAvgLogLikelihoodInterval(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randSepMixture(rng, 5, 4, 3)
	data := m.SampleN(rng, 1567)
	for _, path := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			s := NewBatchScratch()
			if _, _, ok := m.avgLogLikelihoodInterval(data, s, path.simd); !ok {
				b.Fatal("interval refused")
			}
			if allocs := testing.AllocsPerRun(10, func() { m.avgLogLikelihoodInterval(data, s, path.simd) }); allocs != 0 {
				b.Fatalf("%.1f allocations per call, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.avgLogLikelihoodInterval(data, s, path.simd)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data)), "ns/record")
		})
	}
}
