package gaussian

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"cludistream/internal/linalg"
)

// checkLSEParity asserts that lseRows, which takes the four-row kernel
// where it can, writes the bits of lseRowsGo for the first count rows of
// logp.
func checkLSEParity(t testing.TB, what string, logp []float64, count, k int) {
	t.Helper()
	got, want := make([]float64, count), make([]float64, count)
	lseRows(logp, count, k, got, new(lseWork))
	lseRowsGo(logp, count, k, want)
	for p := range got {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			row := logp[p*k : p*k+k]
			if len(row) > 6 {
				row = row[:6]
			}
			t.Fatalf("%s: row %d (lane %d, entries %v…): kernel %v (%#x) != Go %v (%#x)",
				what, p, p%4, row, got[p], math.Float64bits(got[p]), want[p], math.Float64bits(want[p]))
		}
	}
}

// lseHandBacks runs lseQuads over the leading quads of logp as lseRows
// does and returns how many row steps it handed back.
func lseHandBacks(logp []float64, count, k int) int {
	quads := count / 4
	if quads == 0 {
		return 0
	}
	w := new(lseWork)
	for i := range w.acc[:4*quads] {
		w.acc[i] = math.Inf(-1)
	}
	n := 0
	for j := 0; j < k; {
		var handed int
		j, handed = lseQuads(&logp[0], k, quads, j, w)
		n += handed
		for _, p := range w.handed[:handed] {
			w.acc[p] = LogAdd(w.acc[p], logp[int(p)*k+j-1])
		}
	}
	return n
}

// TestLSEWorkLayout pins lseWork's field offsets to the ACC … HANDED
// offsets lse_amd64.s addresses it by.
func TestLSEWorkLayout(t *testing.T) {
	var w lseWork
	got := [5]uintptr{unsafe.Offsetof(w.acc), unsafe.Offsetof(w.d), unsafe.Offsetof(w.a), unsafe.Offsetof(w.slot), unsafe.Offsetof(w.handed)}
	if want := [5]uintptr{0, 1056, 2112, 3168, 4224}; got != want || BatchBlock != 128 {
		t.Fatalf("lseWork offsets %v, BatchBlock %d; lse_amd64.s reads %v and pads into row 128", got, BatchBlock, want)
	}
}

// lseSkipThreshold is LogAdd's skip threshold for a: b − a below it
// returns a (never for zero or subnormal a, whose threshold is −Inf here).
func lseSkipThreshold(a float64) float64 {
	e := int(math.Float64bits(a) >> 52 & 0x7ff)
	if e == 0 {
		return math.Inf(-1)
	}
	return float64(e-1078) * math.Ln2
}

// lseNaN1 and lseNaN2 are NaNs with different payloads; lseNaN3 is a
// negative one.
var (
	lseNaN1 = math.Float64frombits(0x7ff8000000000001)
	lseNaN2 = math.Float64frombits(0x7ff80000000abcde)
	lseNaN3 = math.Float64frombits(0xfff4000000000077)
)

// lsePairs returns the (a, b) pairs a LogAdd step must get right, each
// the chain value and the next entry: equal operands (log1p's f = 0 path),
// b − a stepped ulp by ulp across the skip threshold, |a| < 1, zero and
// subnormal a (which always take the formula), b − a in each of log1p's
// ranges (x < 2⁻⁵⁴, x < 2⁻²⁹, x < √2 − 1, and around √2 − 1, where the
// mantissa test of 1 + x flips), b − a in Exp's denormal range, −Inf, two
// NaN payloads and ±Inf.
func lsePairs() [][2]float64 {
	var ps [][2]float64
	inf := math.Inf(1)
	for _, a := range []float64{-5.3, -0.7, -1e-3, 0, math.Copysign(0, -1), 3, -1e-300, 5e-324, -4.9e-320, -700, 1e10, -inf, inf, lseNaN1} {
		ps = append(ps, [2]float64{a, a})
	}
	for _, a := range []float64{-5.3, -0.7, -1e-3, 12.5, -40, -1e-300, -1e5} {
		thr := lseSkipThreshold(a)
		b := a + thr
		for i := 0; i < 12; i++ {
			b = math.Nextafter(b, inf)
		}
		for i := 0; i < 24; i++ {
			ps = append(ps, [2]float64{a, b})
			b = math.Nextafter(b, -inf)
		}
	}
	for _, a := range []float64{-0.3, -0.99, 0.5, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 0, math.Copysign(0, -1)} {
		for _, d := range []float64{-1e-300, -1e-17, -0.2, -0.5, -3, -30, -700, -708.3, -708.5, -720, -745, -800, -1e300, -inf} {
			ps = append(ps, [2]float64{a, a + d})
		}
	}
	for _, a := range []float64{-1e-3, -5, -0.5, 1e-9} {
		for _, d := range []float64{-40, -38, -37.5, -25, -20.2, -20, -5, -1, -0.9, -0.5, -0.1, -1e-9, -1e-17} {
			ps = append(ps, [2]float64{a, a + d})
		}
	}
	for _, a := range []float64{0, -2, -0.25} {
		d := math.Log(math.Sqrt2 - 1)
		for i := 0; i < 8; i++ {
			d = math.Nextafter(d, inf)
		}
		for i := 0; i < 16; i++ {
			ps = append(ps, [2]float64{a, a + d})
			d = math.Nextafter(d, -inf)
		}
	}
	for _, x := range []float64{-5, 0, -1e-310, inf, -inf, lseNaN1, lseNaN2, lseNaN3} {
		for _, y := range []float64{-3, -inf, inf, lseNaN1, lseNaN2, lseNaN3} {
			ps = append(ps, [2]float64{x, y})
		}
	}
	return ps
}

// lseLog1pBranch names the branch math.log1p takes on x in (0, 1].
func lseLog1pBranch(x float64) string {
	switch {
	case x < 0x1p-54:
		return "tiny"
	case x < 0x1p-29:
		return "small"
	case x < math.Sqrt2-1:
		return "k=0"
	case math.Float64bits(1+x)&(1<<52-1) < 0x0006a09e667f3bcd:
		return "k=0 of 1+x"
	}
	return "k=1"
}

// lseRandomEntry is a term like scoreBlock's: log w + log-norm − ½q at a
// distance that is mostly near, sometimes far.
func lseRandomEntry(rng *rand.Rand) float64 {
	q := rng.ExpFloat64() * 8
	if rng.Intn(4) == 0 {
		q *= 50
	}
	return -1.6 - 3.7 - 0.5*q
}

// lseTestRows returns test rows of k entries: random rows, rows with −Inf
// entries, an all-−Inf row, and every lsePairs pair as the chain value
// and next entry, at step 1 and at a later step, in both orders.
func lseTestRows(rng *rand.Rand, k int) [][]float64 {
	random := func() []float64 {
		row := make([]float64, k)
		for j := range row {
			row[j] = lseRandomEntry(rng)
		}
		return row
	}
	var rows [][]float64
	for i := 0; i < 8; i++ {
		rows = append(rows, random())
	}
	for i := 0; i < 4; i++ {
		row := random()
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = math.Inf(-1)
			}
		}
		rows = append(rows, row)
	}
	none := make([]float64, k)
	for j := range none {
		none[j] = math.Inf(-1)
	}
	rows = append(rows, none)
	for _, p := range lsePairs() {
		if k == 1 {
			rows = append(rows, []float64{p[0]}, []float64{p[1]})
			continue
		}
		for _, ab := range [][2]float64{p, {p[1], p[0]}} {
			row := random()
			row[0], row[1] = ab[0], ab[1]
			rows = append(rows, row)
			if k > 3 {
				row = random()
				at := 1 + rng.Intn(k-2)
				for j := 0; j < at; j++ {
					row[j] = math.Inf(-1)
				}
				row[at], row[at+1] = ab[0], ab[1]
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// TestLSESIMDMatchesGo pins the four-row log-sum-exp kernel bit for bit to
// lseRowsGo: K = 1–9, 55 and 853, record counts 1–8, 127 and 128, and
// every lsePairs case in every lane position (the rows are laid out four
// times, shifted by one row each time). It also checks that the pairs
// reach every branch of log1p and both sides of the skip threshold, that
// skipping lanes are kept out of the formula, and that the kernel runs
// bench-like rows without a hand-back.
func TestLSESIMDMatchesGo(t *testing.T) {
	t.Logf("math.Exp runs its FMA sequence: %v", mathExpFMA())
	if !lseKernel {
		t.Skip("lseKernel off: no AVX2+FMA kernel on this " + runtime.GOARCH + " CPU, or math.Exp runs its non-FMA sequence")
	}
	branches := map[string]int{}
	var skipped, formula int
	for _, p := range lsePairs() {
		a, b := p[0], p[1]
		if math.IsInf(a, -1) || math.IsInf(b, -1) || a != a || b != b {
			continue
		}
		if a < b {
			a, b = b, a
		}
		if b-a < lseSkipThreshold(a) {
			skipped++
			continue
		}
		formula++
		if x := math.Exp(b - a); x >= 0x1p-1022 && x < 1 {
			branches[lseLog1pBranch(x)]++
		}
	}
	for _, br := range []string{"tiny", "small", "k=0", "k=0 of 1+x", "k=1"} {
		if branches[br] == 0 {
			t.Errorf("no pair reaches log1p's %q branch: %v", br, branches)
		}
	}
	if skipped == 0 || formula == 0 {
		t.Errorf("pairs: %d skipped, %d through the formula", skipped, formula)
	}

	// The skip rule must keep lanes out of the formula, not only give
	// its bits (the formula would round back to a): after a column whose
	// entries all skip, the kernel has packed no lane, so w.slot holds
	// only the padding row BatchBlock; after one that needs the formula
	// in every lane, rows 0–3.
	for _, c := range []struct {
		last float64
		want [4]int64
	}{{-60, [4]int64{BatchBlock, BatchBlock, BatchBlock, BatchBlock}}, {-6, [4]int64{0, 1, 2, 3}}} {
		w := new(lseWork)
		for i := range w.acc[:4] {
			w.acc[i] = math.Inf(-1)
		}
		logp := []float64{-5, c.last, -5, c.last, -5, c.last, -5, c.last}
		if next, handed := lseQuads(&logp[0], 2, 1, 0, w); next != 2 || handed != 0 {
			t.Fatalf("last entry %v: next %d, handed %d", c.last, next, handed)
		}
		if got := [4]int64(w.slot[:4]); got != c.want {
			t.Fatalf("last entry %v: packed rows %v, want %v", c.last, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(58))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 55, 853} {
		rows := lseTestRows(rng, k)
		for shift := 0; shift < 4; shift++ {
			var logp []float64
			for i := 0; i < shift; i++ {
				logp = append(logp, rows[0]...)
			}
			for _, row := range rows {
				logp = append(logp, row...)
			}
			total := len(logp) / k
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 127, 128} {
				for p := 0; p < total; p += n {
					c := min(n, total-p)
					checkLSEParity(t, fmt.Sprintf("K=%d shift=%d n=%d rows %d…", k, shift, n, p), logp[p*k:(p+c)*k], c, k)
				}
			}
		}
		logp := make([]float64, 128*k)
		for i := range logp {
			logp[i] = lseRandomEntry(rng)
		}
		if n := lseHandBacks(logp, 128, k); n != 0 {
			t.Errorf("K=%d: %d row steps handed back on random rows, want 0", k, n)
		}
	}
}

// FuzzLSESIMDMatchesGo drives the four-row kernel with fuzzed blocks:
// K = 1–16 and 1–40 rows, each entry either arbitrary bits (NaN payloads,
// ±Inf, ±0, subnormals, huge values) or a term near the row's first one,
// so that chains cross the skip threshold and log1p's branches. Kernel
// and lseRowsGo must agree bit for bit.
func FuzzLSESIMDMatchesGo(f *testing.F) {
	f.Add(uint8(5), uint8(8), []byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 2, 1, 0})
	f.Add(uint8(1), uint8(4), []byte{0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(2), uint8(12), []byte{3, 0x10, 0x20, 3, 0x10, 0x20, 3, 0x10, 0x21})
	f.Add(uint8(9), uint8(33), []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, k, n uint8, raw []byte) {
		if !lseKernel {
			t.Skip("lseKernel off")
		}
		kk, count := 1+int(k%16), 1+int(n%40)
		logp := make([]float64, count*kk)
		for i := range logp {
			if len(raw) == 0 {
				logp[i] = lseRandomEntry(rand.New(rand.NewSource(int64(i))))
				continue
			}
			tag := raw[0]
			raw = raw[1:]
			var v [8]byte
			switch tag % 4 {
			case 0: // raw bits
				copy(v[:], raw)
				raw = raw[min(8, len(raw)):]
				logp[i] = math.Float64frombits(binary.LittleEndian.Uint64(v[:]))
			default: // the row's first entry minus a step of up to 2¹⁶ at scale 2^−tag
				copy(v[:2], raw)
				raw = raw[min(2, len(raw)):]
				first := logp[i-i%kk]
				if i%kk == 0 {
					first = -5
				}
				logp[i] = first - math.Ldexp(float64(binary.LittleEndian.Uint16(v[:2])), -int(tag%64))
			}
		}
		checkLSEParity(t, fmt.Sprintf("K=%d n=%d", kk, count), logp, count, kk)
	})
}

// TestExpLanesMatchMath holds the kernel's Exp block to math.Exp bit for
// bit: 10⁷ random inputs in [−746, 710] and the boundaries (±0,
// subnormals, Exp's denormal and overflow edges, the rounding ties of
// x·log₂e, ±Inf, NaN). A lane it does not compute must be one where
// math.Exp leaves the sequence: n = round(x·log₂e) with n + 1023 outside
// (0, 2047), which NaN and ±Inf are too.
func TestExpLanesMatchMath(t *testing.T) {
	if !lseKernel {
		t.Skip("lseKernel off: no AVX2+FMA kernel on this " + runtime.GOARCH + " CPU, or math.Exp runs its non-FMA sequence")
	}
	inf := math.Inf(1)
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300, 1, -1,
		-745.1332191019411, -745.1332191019412, -708.3964185322641, -708.39641853226408, -709.08956571282405,
		709.782712893384, 709.7827128933841, 709.43, 709.44, 710, -746, -744.44007192138126,
		inf, -inf, lseNaN1, lseNaN2, lseNaN3, math.MaxFloat64, -math.MaxFloat64}
	for n := -1080; n <= 1030; n++ {
		x := (float64(n) + 0.5) * math.Ln2
		edges = append(edges, x, math.Nextafter(x, inf), math.Nextafter(x, -inf))
	}
	var xs []float64
	xs = append(xs, edges...)
	rng := rand.New(rand.NewSource(7))
	computed, handed := 0, 0
	check := func(x [4]float64) {
		in := x
		mask := expLanes(&x)
		for i, v := range in {
			n := math.RoundToEven(v * math.Log2E)
			wantHanded := !(n+1023 > 0 && n+1023 < 2047)
			if got := mask&(1<<i) == 0; got != wantHanded {
				t.Fatalf("Exp(%v) (%#x): handed back %v, want %v", v, math.Float64bits(v), got, wantHanded)
			}
			if wantHanded {
				handed++
				continue
			}
			computed++
			if want := math.Exp(v); math.Float64bits(x[i]) != math.Float64bits(want) {
				t.Fatalf("Exp(%v) (%#x): kernel %v (%#x), math.Exp %v (%#x)", v, math.Float64bits(v), x[i], math.Float64bits(x[i]), want, math.Float64bits(want))
			}
		}
	}
	for i := 0; i+4 <= len(xs); i += 4 {
		check([4]float64(xs[i : i+4]))
	}
	for s := 0; s < 4; s++ { // every edge in every lane
		var x [4]float64
		for i, v := range edges {
			x[(i+s)%4] = v
			if i%4 == 3 {
				check(x)
			}
		}
	}
	const draws = 10_000_000
	for i := 0; i < draws; i += 4 {
		var x [4]float64
		for l := range x {
			x[l] = -746 + rng.Float64()*1456
		}
		check(x)
	}
	t.Logf("%d lanes computed, %d handed back", computed, handed)
}

// lseBenchRows returns the 256 × k log-prob rows the query tier reduces
// for one batch: a k-component d = 4 mixture with means uniform over ±10
// (bench's generator range), records half near a component mean and half
// uniform over ±15, as bench's query points are drawn, scored by
// scoreBlock in two blocks.
func lseBenchRows(k int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(k)))
	comps := make([]*Component, k)
	weights := make([]float64, k)
	for j := range comps {
		mean := linalg.NewVector(4)
		for i := range mean {
			mean[i] = (rng.Float64()*2 - 1) * 10
		}
		comps[j] = Spherical(mean, 0.5+rng.Float64())
		weights[j] = 0.2 + rng.Float64()
	}
	m := MustMixture(weights, comps)
	s := NewBatchScratch()
	s.ensure(4, k)
	var blocks [][]float64
	for b := 0; b < 2; b++ {
		xs := make([]linalg.Vector, BatchBlock)
		for i := range xs {
			x := linalg.NewVector(4)
			if i%2 == 0 {
				mean := comps[rng.Intn(k)].Mean()
				for d := range x {
					x[d] = mean[d] + rng.NormFloat64()
				}
			} else {
				for d := range x {
					x[d] = (rng.Float64()*2 - 1) * 15
				}
			}
			xs[i] = x
		}
		m.scoreBlock(xs, s, false)
		blocks = append(blocks, append([]float64(nil), s.logp[:BatchBlock*k]...))
	}
	return blocks
}

// BenchmarkLSERows times lseRows on one query batch (256 records, d = 4)
// at K = 5 (the daemons' K), 55 (drift's served root) and 853 (an aged
// root): simd is the kernel, go lseRowsGo. Both allocate nothing.
func BenchmarkLSERows(b *testing.B) {
	for _, k := range []int{5, 55, 853} {
		blocks := lseBenchRows(k)
		dst := make([]float64, BatchBlock)
		w := new(lseWork)
		for _, path := range []struct {
			name string
			lse  func(logp []float64, count, k int, dst []float64)
		}{
			{"simd", func(logp []float64, count, k int, dst []float64) { lseRows(logp, count, k, dst, w) }},
			{"go", lseRowsGo},
		} {
			b.Run(fmt.Sprintf("%s/K=%d", path.name, k), func(b *testing.B) {
				if path.name == "simd" && !lseKernel {
					b.Skip("lseKernel off")
				}
				run := func() {
					for _, logp := range blocks {
						path.lse(logp, BatchBlock, k, dst)
					}
				}
				if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
					b.Fatalf("%.1f allocations per batch, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)*BatchBlock), "ns/record")
			})
		}
	}
}
