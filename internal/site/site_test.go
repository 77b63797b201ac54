package site

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cludistream/internal/chunk"
	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"
)

// testConfig returns a small, fast configuration: 1-d data, chunk size 200.
func testConfig() Config {
	return Config{
		SiteID:    1,
		Dim:       1,
		K:         2,
		Epsilon:   0.1,
		Delta:     0.01,
		CMax:      4,
		Seed:      1,
		ChunkSize: 200,
	}
}

func regime(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
		})
}

func feed(t *testing.T, s *Site, mix *gaussian.Mixture, n int, rng *rand.Rand) []Update {
	t.Helper()
	var ups []Update
	for i := 0; i < n; i++ {
		u, err := s.Observe(mix.Sample(rng))
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u...)
	}
	return ups
}

func TestFirstChunkAlwaysClusters(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ups := feed(t, s, regime(0), 200, rng)
	if len(ups) != 1 || ups[0].Kind != NewModel {
		t.Fatalf("updates after first chunk = %+v", ups)
	}
	if ups[0].Mixture == nil || ups[0].Count != 200 {
		t.Fatalf("first update malformed: %+v", ups[0])
	}
	if s.Current() == nil || s.Current().ID != 1 {
		t.Fatal("no current model after first chunk")
	}
	if s.Stats().EMRuns != 1 {
		t.Fatalf("EMRuns = %d", s.Stats().EMRuns)
	}
}

func TestStationaryStreamStaysSilent(t *testing.T) {
	// Stability (Section 5.3): unchanged distribution ⇒ no communication.
	s, _ := New(testConfig())
	rng := rand.New(rand.NewSource(2))
	mix := regime(0)
	ups := feed(t, s, mix, 200*10, rng)
	if len(ups) != 1 {
		t.Fatalf("stationary stream produced %d updates, want 1", len(ups))
	}
	if got := s.Current().Counter; got != 200*10 {
		t.Fatalf("counter = %d, want 2000", got)
	}
	st := s.Stats()
	if st.EMRuns != 1 {
		t.Fatalf("EM ran %d times on a stationary stream", st.EMRuns)
	}
	if st.Fits != 9 {
		t.Fatalf("Fits = %d, want 9", st.Fits)
	}
	if len(s.Models()) != 1 {
		t.Fatalf("model list has %d entries", len(s.Models()))
	}
}

func TestDistributionChangeTriggersNewModel(t *testing.T) {
	s, _ := New(testConfig())
	rng := rand.New(rand.NewSource(3))
	feed(t, s, regime(0), 200*3, rng)
	ups := feed(t, s, regime(50), 200*3, rng)
	var newModels int
	for _, u := range ups {
		if u.Kind == NewModel {
			newModels++
		}
	}
	if newModels != 1 {
		t.Fatalf("regime change produced %d NewModel updates, want 1", newModels)
	}
	if len(s.Models()) != 2 {
		t.Fatalf("model list = %d, want 2", len(s.Models()))
	}
	// Event list must hold the retired model's span: chunks 1-3.
	ev := s.Events()
	if ev.Len() != 1 {
		t.Fatalf("event list len = %d", ev.Len())
	}
	e := ev.At(0)
	if e.ModelID != 1 || e.StartChunk != 1 || e.EndChunk != 3 {
		t.Fatalf("event = %v, want <model 1, chunks 1-3>", e)
	}
}

func TestMultiTestReactivatesArchivedModel(t *testing.T) {
	// Alternate A, B, A: with c_max ≥ 2 the third phase must re-activate
	// model A via a WeightUpdate, not run EM again.
	s, _ := New(testConfig())
	rng := rand.New(rand.NewSource(4))
	a, b := regime(0), regime(60)
	feed(t, s, a, 200*3, rng)
	feed(t, s, b, 200*3, rng)
	emBefore := s.Stats().EMRuns
	ups := feed(t, s, a, 200*3, rng)

	var weightUps int
	for _, u := range ups {
		if u.Kind == WeightUpdate {
			weightUps++
			if u.ModelID != 1 {
				t.Fatalf("weight update for model %d, want 1", u.ModelID)
			}
			if u.Count != 200 {
				t.Fatalf("weight update count = %d", u.Count)
			}
		}
		if u.Kind == NewModel {
			t.Fatalf("unexpected NewModel update on return to regime A: %+v", u)
		}
	}
	if weightUps == 0 {
		t.Fatal("no weight updates on regime return")
	}
	if s.Stats().EMRuns != emBefore {
		t.Fatal("EM ran despite archived model fitting")
	}
	if s.Current().ID != 1 {
		t.Fatalf("current model = %d, want re-activated 1", s.Current().ID)
	}
	if s.Stats().Reactivated == 0 {
		t.Fatal("Reactivated counter not bumped")
	}
}

func TestCMax1DisablesMultiTest(t *testing.T) {
	cfg := testConfig()
	cfg.CMax = 1
	s, _ := New(cfg)
	rng := rand.New(rand.NewSource(5))
	a, b := regime(0), regime(60)
	feed(t, s, a, 200*2, rng)
	feed(t, s, b, 200*2, rng)
	feed(t, s, a, 200*2, rng)
	// Each regime switch must cost a fresh EM model: 3 models total.
	if got := len(s.Models()); got != 3 {
		t.Fatalf("models = %d, want 3 with c_max=1", got)
	}
	if s.Stats().Reactivated != 0 {
		t.Fatal("reactivation happened with c_max=1")
	}
}

func TestEpsilonControlsSensitivity(t *testing.T) {
	// A small mean shift: a loose ε tolerates it, a tight ε refits.
	mk := func(eps float64) int {
		cfg := testConfig()
		cfg.Epsilon = eps
		s, _ := New(cfg)
		rng := rand.New(rand.NewSource(6))
		feed(t, s, regime(0), 200*3, rng)
		feed(t, s, regime(0.4), 200*3, rng)
		return len(s.Models())
	}
	if loose := mk(5.0); loose != 1 {
		t.Fatalf("loose ε: %d models, want 1", loose)
	}
	if tight := mk(0.01); tight < 2 {
		t.Fatalf("tight ε: %d models, want ≥ 2", tight)
	}
}

func TestChunkSizeFromTheorem(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkSize = 0 // use Theorem 1
	cfg.Dim = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// d=4, ε=0.1, δ=0.01 → M = ⌈-8·ln(0.0199)/0.1⌉ = ⌈313.39⌉ = 314.
	if got := s.ChunkSize(); got != 314 {
		t.Fatalf("ChunkSize = %d, want 314", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dim: 0, K: 2, Epsilon: 0.1, Delta: 0.01, ChunkSize: 100},
		{Dim: 1, K: 0, Epsilon: 0.1, Delta: 0.01, ChunkSize: 100},
		{Dim: 1, K: 200, Epsilon: 0.1, Delta: 0.01, ChunkSize: 100}, // M < K
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestObserveDimValidation(t *testing.T) {
	s, _ := New(testConfig())
	if _, err := s.Observe(linalg.Vector{1, 2}); err == nil {
		t.Fatal("wrong-dim record accepted")
	}
}

// TestObserveRejectsInfiniteRecord: a ±Inf coordinate is refused by the
// Observe call that carries it, and the site goes on exactly as if the
// record had never arrived — the same updates, event table and counters as
// the stream without it. (Accepting it would fail the chunk's EM only at
// chunk close, after the current model was already retired.)
func TestObserveRejectsInfiniteRecord(t *testing.T) {
	cfg := Config{SiteID: 1, Dim: 2, K: 3, Epsilon: 0.5, Delta: 0.01, Seed: 5, ChunkSize: 100}
	rng := rand.New(rand.NewSource(17))
	stream := append(kRegime(3, 6, 0).SampleN(rng, 200), kRegime(3, 6, 1).SampleN(rng, 200)...)
	wantFP, wantEv, wantSt := replayStream(t, cfg, false, stream)
	const bad = 150
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := newUpdateFingerprint()
		for i, x := range stream {
			if i == bad {
				if ups, err := s.Observe(linalg.Vector{x[0], inf}); err == nil || ups != nil {
					t.Fatalf("record %d with %v: Observe = %v, %v; want an error", i, inf, ups, err)
				}
			}
			ups, err := s.Observe(x)
			if err != nil {
				t.Fatalf("record %d after the rejected one: %v", i, err)
			}
			fp.add(ups)
		}
		if got := fp.h.Sum64(); got != wantFP {
			t.Errorf("%v: update fingerprint %#x, want %#x (the stream without the record)", inf, got, wantFP)
		}
		if got := s.Events().All(); !reflect.DeepEqual(got, wantEv) {
			t.Errorf("%v: events %v, want %v", inf, got, wantEv)
		}
		if got := s.Stats(); got != wantSt {
			t.Errorf("%v: stats %+v, want %+v", inf, got, wantSt)
		}
	}
	if wantSt.Refits < 2 {
		t.Fatalf("stream refit %d times; the regime shift should force a second model", wantSt.Refits)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []*Model {
		s, _ := New(testConfig())
		rng := rand.New(rand.NewSource(7))
		feed(t, s, regime(0), 200*3, rng)
		feed(t, s, regime(40), 200*3, rng)
		return s.Models()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different model counts")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Counter != b[i].Counter {
			t.Fatal("model lists differ")
		}
		for j := 0; j < a[i].Mixture.K(); j++ {
			if !a[i].Mixture.Component(j).Equal(b[i].Mixture.Component(j), 0) {
				t.Fatal("components differ across identical runs")
			}
		}
	}
}

func TestLandmarkMixture(t *testing.T) {
	s, _ := New(testConfig())
	rng := rand.New(rand.NewSource(8))
	feed(t, s, regime(0), 200*4, rng)
	feed(t, s, regime(60), 200*2, rng)
	lm := s.History().Landmark()
	if lm == nil {
		t.Fatal("nil landmark mixture")
	}
	if lm.K() != 4 { // 2 models × K=2
		t.Fatalf("landmark K = %d, want 4", lm.K())
	}
	// Model 1 explains 800 records, model 2 explains 400: weight ratio 2:1.
	var w1, w2 float64
	for j := 0; j < lm.K(); j++ {
		if lm.Component(j).Mean()[0] < 30 {
			w1 += lm.Weight(j)
		} else {
			w2 += lm.Weight(j)
		}
	}
	if math.Abs(w1/w2-2) > 1e-9 {
		t.Fatalf("landmark weight ratio = %v, want 2", w1/w2)
	}
	// Landmark mixture should assign decent likelihood to both regimes.
	if ll := lm.AvgLogLikelihood([]linalg.Vector{{-2}, {2}, {58}, {62}}); ll < -5 {
		t.Fatalf("landmark LL = %v", ll)
	}

	empty, _ := New(testConfig())
	if empty.History().Landmark() != nil {
		t.Fatal("empty site should have nil landmark mixture")
	}
}

func TestMemoryAccounting(t *testing.T) {
	s, _ := New(testConfig())
	rng := rand.New(rand.NewSource(10))
	if s.BufferBytes() != 200*1*8 {
		t.Fatalf("BufferBytes = %d", s.BufferBytes())
	}
	feed(t, s, regime(0), 200*2, rng)
	one := s.ModelListBytes()
	feed(t, s, regime(60), 200*2, rng)
	two := s.ModelListBytes()
	if two != 2*one {
		t.Fatalf("model list bytes %d -> %d, want doubling", one, two)
	}
	// d=1, K=2: per component 1+1+1 floats = 24 bytes, model = 48.
	if one != 48 {
		t.Fatalf("one model = %d bytes, want 48", one)
	}
}

func TestSharpTestVariant(t *testing.T) {
	cfg := testConfig()
	cfg.SharpTest = true
	s, _ := New(cfg)
	rng := rand.New(rand.NewSource(11))
	ups := feed(t, s, regime(0), 200*5, rng)
	if len(ups) != 1 {
		t.Fatalf("sharp test: %d updates on stationary stream", len(ups))
	}
	feed(t, s, regime(80), 200*2, rng)
	if len(s.Models()) != 2 {
		t.Fatalf("sharp test missed a regime change: %d models", len(s.Models()))
	}
}

func TestEmitFitWeightUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.EmitFitWeightUpdates = true
	s, _ := New(cfg)
	rng := rand.New(rand.NewSource(13))
	ups := feed(t, s, regime(0), 200*4, rng)
	// 1 NewModel + 3 WeightUpdates for the fitting chunks.
	var newModels, weightUps int
	for _, u := range ups {
		switch u.Kind {
		case NewModel:
			newModels++
		case WeightUpdate:
			weightUps++
			if u.ModelID != 1 || u.Count != 200 {
				t.Fatalf("weight update = %+v", u)
			}
		}
	}
	if newModels != 1 || weightUps != 3 {
		t.Fatalf("newModels=%d weightUps=%d, want 1 and 3", newModels, weightUps)
	}
}

func TestIncompleteRecordsEndToEnd(t *testing.T) {
	// 20% of attributes missing: the site must still learn the regime and
	// detect the change — the paper's "incomplete data records" claim.
	cfg := testConfig()
	cfg.Dim = 2
	cfg.Epsilon = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	blank := func(x linalg.Vector) linalg.Vector {
		if rng.Float64() < 0.4 { // 40% of records lose one attribute
			x[rng.Intn(2)] = math.NaN()
		}
		return x
	}
	for i := 0; i < 200*3; i++ {
		if _, err := s.Observe(blank(regime2d(0).Sample(rng))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Current() == nil {
		t.Fatal("no model learned from incomplete stream")
	}
	// Model quality on complete probes.
	probes := []linalg.Vector{{-2, 0}, {2, 0}}
	if ll := s.Current().Mixture.AvgLogLikelihood(probes); ll < -5 {
		t.Fatalf("incomplete-data model LL = %v", ll)
	}
	// Regime change must still be detected.
	for i := 0; i < 200*2; i++ {
		if _, err := s.Observe(blank(regime2d(50).Sample(rng))); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Models()) < 2 {
		t.Fatal("regime change missed on incomplete stream")
	}
}

// regime2d is regime's 2-d counterpart: two components either side of
// (mean, mean).
func regime2d(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2, mean}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2, mean}, 0.5),
		})
}

// TestDeadAttributeStillDetectsChange: when every record of a chunk misses
// the same attribute, no record is complete. Scoring that empty view gave
// an average of 0, the refit on the first such chunk made 0 the reference,
// and every later dead chunk "fit" — a regime shifted by 40 went unnoticed.
// The site must score such chunks by the observed attributes instead.
func TestDeadAttributeStillDetectsChange(t *testing.T) {
	cfg := testConfig()
	cfg.Dim = 2
	cfg.Epsilon = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	observe := func(mean float64, dead bool) {
		for i := 0; i < cfg.ChunkSize; i++ {
			x := regime2d(mean).Sample(rng)
			if dead {
				x[1] = math.NaN()
			}
			if _, err := s.Observe(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	observe(0, false)
	observe(0, true)
	before := s.Stats()
	for c := 0; c < 4; c++ {
		observe(40, true)
	}
	after := s.Stats()
	if after.Refits == before.Refits {
		t.Fatalf("a regime shifted by 40 passed as %d fits with 0 refits", after.Fits-before.Fits)
	}
	if after.Fits == before.Fits {
		t.Errorf("the shifted regime never fit its own model (%d refits)", after.Refits-before.Refits)
	}
	if ref := s.Current().RefAvgLL; ref == 0 || math.IsNaN(ref) {
		t.Errorf("reference Avg_Pr0 = %v, want the observed attribute's likelihood", ref)
	}
}

// TestObserveMatchesProcessChunk: a chunk that arrives through Observe
// takes its complete-records view from the chunker's NaN count, a chunk
// handed to ProcessChunk from a scan of the chunk. Both sites must decide
// every chunk alike — updates, mixtures, references and counters — over
// chunks with no, one, some and only incomplete records and a regime
// change, with rejected ±Inf records among Observe's input.
func TestObserveMatchesProcessChunk(t *testing.T) {
	cfg := testConfig()
	cfg.Dim = 2
	cfg.Epsilon = 0.5
	cfg.FitEps = 1
	viaObserve, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaChunk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	every := func(i int) bool { return true }
	for c, plan := range []struct {
		mean float64
		nan  func(i int) bool
	}{
		{0, nil},
		{0, func(i int) bool { return i == 7 }},
		{0, func(i int) bool { return i%5 == 0 }},
		{0, every},
		{40, nil},
		{40, every},
		{40, func(i int) bool { return i == cfg.ChunkSize-1 }},
		{0, nil},
	} {
		data := make([]linalg.Vector, cfg.ChunkSize)
		for i := range data {
			data[i] = regime2d(plan.mean).Sample(rng)
			if plan.nan != nil && plan.nan(i) {
				data[i][i%2] = math.NaN()
			}
		}
		var got []Update
		for i, x := range data {
			if i%50 == 3 {
				if _, err := viaObserve.Observe(linalg.Vector{math.NaN(), math.Inf(-1)}); err == nil {
					t.Fatalf("chunk %d: a record with -Inf accepted", c)
				}
			}
			ups, err := viaObserve.Observe(x)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ups...)
		}
		want, err := viaChunk.ProcessChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d updates through Observe, %d through ProcessChunk", c, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Kind != w.Kind || g.ModelID != w.ModelID || g.Count != w.Count ||
				(g.Mixture == nil) != (w.Mixture == nil) ||
				(g.Mixture != nil && string(gaussian.AppendMixture(nil, g.Mixture)) != string(gaussian.AppendMixture(nil, w.Mixture))) {
				t.Fatalf("chunk %d update %d: %+v through Observe, %+v through ProcessChunk", c, i, g, w)
			}
		}
	}
	gs, ws := viaObserve.Stats(), viaChunk.Stats()
	if gs.Records != 8*cfg.ChunkSize {
		t.Fatalf("Observe counted %d records, want %d", gs.Records, 8*cfg.ChunkSize)
	}
	gs.Records = ws.Records
	if gs != ws {
		t.Fatalf("stats through Observe %+v, through ProcessChunk %+v", gs, ws)
	}
	if gs.Fits == 0 || gs.Refits == 0 {
		t.Fatalf("%d fits and %d refits; the chunks must exercise both", gs.Fits, gs.Refits)
	}
	gm, wm := viaObserve.Models(), viaChunk.Models()
	if len(gm) < 2 || len(gm) != len(wm) {
		t.Fatalf("%d models through Observe, %d through ProcessChunk; want the same, at least 2", len(gm), len(wm))
	}
	for i := range gm {
		if math.Float64bits(gm[i].RefAvgLL) != math.Float64bits(wm[i].RefAvgLL) {
			t.Fatalf("model %d: reference %v through Observe, %v through ProcessChunk", i, gm[i].RefAvgLL, wm[i].RefAvgLL)
		}
	}
}

func TestNoisyStreamStability(t *testing.T) {
	// 5% uniform noise (the Figure 4(d) scenario) must not fragment the
	// model list: EM's mixture absorbs the noise.
	cfg := testConfig()
	cfg.Epsilon = 0.35 // noise inflates LL variance; keep the test honest
	s, _ := New(cfg)
	rng := rand.New(rand.NewSource(12))
	mix := regime(0)
	for i := 0; i < 200*8; i++ {
		var x linalg.Vector
		if rng.Float64() < 0.05 {
			x = linalg.Vector{rng.Float64()*20 - 10}
		} else {
			x = mix.Sample(rng)
		}
		if _, err := s.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Models()); got > 2 {
		t.Fatalf("noisy stationary stream fragmented into %d models", got)
	}
}

// driftMix builds the warm-start drift workload: three overlapping 4-d
// spherical components. Overlap matters — it is what makes cold k-means++
// EM iterate long enough for a nearby seed to pay; on well-separated
// clusters cold EM converges in 2-3 iterations and there is nothing to
// save.
func driftMix(mean float64) *gaussian.Mixture {
	comps := make([]*gaussian.Component, 3)
	ws := []float64{0.5, 0.3, 0.2}
	for j := range comps {
		mu := linalg.NewVector(4)
		for i := range mu {
			mu[i] = mean + float64(j)*2 + 0.3*float64(i)
		}
		comps[j] = gaussian.Spherical(mu, 1)
	}
	return gaussian.MustMixture(ws, comps)
}

// driftSites runs a warm-start site (auditing every auditEvery-th warm
// refit; 0 keeps New's cadence) and an always-cold site over the same
// gradual-drift stream (the mean moves 0.3 per chunk — a J_fit margin past
// ε but inside the warm-start margin, so refits are warm-eligible) and
// returns both.
func driftSites(t *testing.T, auditEvery int) (warm, cold *Site) {
	t.Helper()
	mk := func(alwaysCold bool) *Site {
		cfg := Config{
			SiteID:    1,
			Dim:       4,
			K:         3,
			Epsilon:   0.1,
			Delta:     0.01,
			CMax:      4,
			Seed:      1,
			ChunkSize: 300,
		}
		cfg.Telemetry = telemetry.NewRegistry()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.alwaysCold = alwaysCold
		if auditEvery > 0 {
			s.auditEvery = auditEvery
		}
		return s
	}
	warm, cold = mk(false), mk(true)
	for _, s := range []*Site{warm, cold} {
		rng := rand.New(rand.NewSource(9))
		for d := 0; d <= 14; d++ {
			feed(t, s, driftMix(0.3*float64(d)), 300, rng)
		}
		// Hold the final regime so both sites' last refit saw the same
		// distribution regardless of how their refit schedules diverged —
		// the holdout comparison below is then model quality, not
		// recency luck.
		for i := 0; i < 3; i++ {
			feed(t, s, driftMix(0.3*14), 300, rng)
		}
	}
	return warm, cold
}

func TestWarmStartReducesIterations(t *testing.T) {
	warm, cold := driftSites(t, 0)
	ws, cs := warm.Stats(), cold.Stats()
	if ws.WarmRefits == 0 {
		t.Fatalf("drift stream triggered no warm refits: %+v", ws)
	}
	// Every warm attempt journals one warm-refit event, and attempts 1, 9,
	// 17, … are the audited ones (they also ran the cold comparison fit).
	attempts := 0
	for _, e := range warm.cfg.Telemetry.Journal().Tail(0) {
		if e.Kind != "warm-refit" {
			continue
		}
		if audited := strings.HasPrefix(e.Note, "audit-"); audited != (attempts%warmAuditEvery == 0) {
			t.Fatalf("warm attempt %d audited = %v, want every %dth attempt audited from the first",
				attempts+1, audited, warmAuditEvery)
		}
		attempts++
	}
	if attempts != ws.WarmRefits+ws.WarmFallbacks {
		t.Fatalf("%d warm-refit events, want one per warm attempt: %+v", attempts, ws)
	}
	if want := (attempts + warmAuditEvery - 1) / warmAuditEvery; ws.WarmAudits != want {
		t.Fatalf("WarmAudits = %d over %d warm attempts, want %d", ws.WarmAudits, attempts, want)
	}
	if cs.WarmRefits != 0 || cs.ColdRefits == 0 {
		t.Fatalf("cold site ran warm refits: %+v", cs)
	}
	warmIters := warm.cfg.Telemetry.Counter("em.iterations").Value()
	coldIters := cold.cfg.Telemetry.Counter("em.iterations").Value()
	if warmIters >= coldIters {
		t.Fatalf("warm start used %d EM iterations, cold start %d", warmIters, coldIters)
	}
	t.Logf("EM iterations: warm=%d cold=%d (refits: %d warm, %d audited, %d fellback)",
		warmIters, coldIters, ws.WarmRefits, ws.WarmAudits, ws.WarmFallbacks)
}

func TestWarmStartQualityNotDegraded(t *testing.T) {
	// Auditing every warm refit, each refit keeps the better of warm and
	// cold, so no single accepted fit can trail the cold fit of its chunk.
	// End to end the two sites' refit *schedules* still diverge (different
	// models pass different J_fit tests), so their final models are fits
	// of different chunks; the holdout comparison is therefore bounded by
	// the algorithm's own resolution ε — both final models pass the J_fit
	// test on the held final regime, which is CluDistream's definition of
	// "the same distribution".
	warm, cold := driftSites(t, 1)
	holdout := driftMix(0.3*14).SampleN(rand.New(rand.NewSource(99)), 2000)
	warmLL := warm.Current().Mixture.AvgLogLikelihood(holdout)
	coldLL := cold.Current().Mixture.AvgLogLikelihood(holdout)
	const eps = 0.1 // the sites' FitEps
	if warmLL < coldLL-eps {
		t.Fatalf("warm-start holdout log-likelihood %v degraded vs cold %v beyond ε", warmLL, coldLL)
	}
	if got := warm.Stats().WarmAudits; got == 0 {
		t.Fatalf("auditing every refit recorded no audits: %+v", warm.Stats())
	}
	t.Logf("holdout avg LL: warm=%v cold=%v", warmLL, coldLL)
}

func TestWarmMarginGatesNovelRegimes(t *testing.T) {
	// Jumps between far-apart regimes: every tested model is hundreds of
	// nats off, so the warm-start margin must force cold refits even with
	// warm start on — warm seeding is a drift optimization only.
	cfg := testConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i, mean := range []float64{0, 60, 120, 180} {
		feed(t, s, regime(mean), 200*2, rng)
		if i == 0 {
			continue
		}
	}
	st := s.Stats()
	if st.WarmRefits != 0 || st.WarmFallbacks != 0 {
		t.Fatalf("novel-regime jumps produced warm refits: %+v", st)
	}
	// ColdRefits counts the gated refits plus the seedless first chunk.
	if st.ColdRefits != 4 {
		t.Fatalf("ColdRefits = %d, want 4", st.ColdRefits)
	}
	if got := cfg.Telemetry.Counter("site.cold_refits").Value(); got != 4 {
		t.Fatalf("site.cold_refits counter = %d", got)
	}
}

func TestNegativeFitEpsRefitsCold(t *testing.T) {
	// A negative FitEps fails every J_fit test (the always-cluster
	// ablation) and makes the warm-start margin negative, so every chunk
	// refits and every refit runs cold, even on a gently drifting stream
	// whose refits would otherwise be warm.
	cfg := Config{
		SiteID: 1, Dim: 4, K: 3, Epsilon: 0.1, FitEps: -1, Delta: 0.01,
		CMax: 4, Seed: 1, ChunkSize: 300,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for d := 0; d <= 6; d++ {
		feed(t, s, driftMix(0.3*float64(d)), 300, rng)
	}
	st := s.Stats()
	if st.WarmRefits != 0 || st.WarmFallbacks != 0 || st.WarmAudits != 0 {
		t.Fatalf("negative FitEps ran warm refits: %+v", st)
	}
	if st.Chunks != 7 || st.ColdRefits != st.Chunks {
		t.Fatalf("ColdRefits = %d over %d chunks, want every chunk cold: %+v", st.ColdRefits, st.Chunks, st)
	}
}

// TestWarmStartColdBitIdenticalPrePR pins the always-cold refit path (and
// the recycled-chunk ingest path) bit-identical to the code base
// before warm starts existed: the golden value was produced by running
// this exact stream through the pre-warm-start site implementation.
func TestWarmStartColdBitIdenticalPrePR(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.alwaysCold = true
	rng := rand.New(rand.NewSource(42))
	h := fnv.New64a()
	wf := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	wi := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	digest := func(mix *gaussian.Mixture, n int) {
		for i := 0; i < n; i++ {
			ups, err := s.Observe(mix.Sample(rng))
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range ups {
				wi(int(u.Kind))
				wi(u.ModelID)
				wi(u.Count)
				if u.Mixture == nil {
					continue
				}
				m := u.Mixture
				for j := 0; j < m.K(); j++ {
					wf(m.Weight(j))
					c := m.Component(j)
					for _, v := range c.Mean() {
						wf(v)
					}
					cov := c.Cov()
					for r := 0; r < len(c.Mean()); r++ {
						for q := 0; q < len(c.Mean()); q++ {
							wf(cov.At(r, q))
						}
					}
				}
			}
		}
	}
	digest(regime(0), 600)
	digest(regime(60), 600)
	for d := 1; d <= 6; d++ {
		digest(regime(60+0.5*float64(d)), 200)
	}
	digest(regime(0), 400)
	const golden uint64 = 0x8ebee668420803af // pre-warm-start site on this stream
	if got := h.Sum64(); got != golden {
		t.Fatalf("always-cold update stream fingerprint = %#x, want %#x", got, golden)
	}
}

func TestSiteSteadyStateZeroAlloc(t *testing.T) {
	// The paper's common case: a stationary stream where every chunk fits
	// the current model. With the chunker's recycle protocol and the
	// pooled batch scorer, Observe must not allocate at all per record.
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pool := regime(0).SampleN(rng, 1000)
	for _, x := range pool {
		if _, err := s.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		ups, err := s.Observe(pool[i%len(pool)])
		if err != nil {
			t.Fatal(err)
		}
		if ups != nil {
			t.Fatalf("unexpected refit in steady state: %+v", ups)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Observe allocates %v per record, want 0", avg)
	}
}

// kRegime builds a k-component 2-d mixture with deterministic means on a
// circle of the given radius.
func kRegime(k int, radius, phase float64) *gaussian.Mixture {
	comps := make([]*gaussian.Component, k)
	weights := make([]float64, k)
	for j := 0; j < k; j++ {
		a := phase + 2*math.Pi*float64(j)/float64(k)
		comps[j] = gaussian.Spherical(linalg.Vector{radius * math.Cos(a), radius * math.Sin(a)}, 0.4)
		weights[j] = 1 + float64(j%3)
	}
	return gaussian.MustMixture(weights, comps)
}

// updateFingerprint hashes an update stream (kinds, model ids, counts and
// every mixture parameter bit) with FNV-1a.
type updateFingerprint struct{ h hash.Hash64 }

func newUpdateFingerprint() updateFingerprint { return updateFingerprint{fnv.New64a()} }

func (f updateFingerprint) add(ups []Update) {
	wf := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		f.h.Write(b[:])
	}
	wi := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.h.Write(b[:])
	}
	for _, u := range ups {
		wi(int(u.Kind))
		wi(u.ModelID)
		wi(u.Count)
		if u.Mixture == nil {
			continue
		}
		for j := 0; j < u.Mixture.K(); j++ {
			wf(u.Mixture.Weight(j))
			c := u.Mixture.Component(j)
			for _, v := range c.Mean() {
				wf(v)
			}
			cov := c.Cov()
			for r := 0; r < len(c.Mean()); r++ {
				for q := 0; q < len(c.Mean()); q++ {
					wf(cov.At(r, q))
				}
			}
		}
	}
}

// replayStream feeds a pre-generated record stream through a fresh site and
// returns the FNV fingerprint of its update stream, the event table, and
// the final stats — the full observable behaviour of Algorithm 1. With
// exact set, the site scores every J_fit test with the exact scan: the
// oracle of the interval parity tests.
func replayStream(t *testing.T, cfg Config, exact bool, stream []linalg.Vector) (uint64, []events.Entry, Stats) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.exactScan = exact
	fp := newUpdateFingerprint()
	for _, x := range stream {
		ups, err := s.Observe(x)
		if err != nil {
			t.Fatal(err)
		}
		fp.add(ups)
	}
	return fp.h.Sum64(), s.Events().All(), s.Stats()
}

// prunedParityStream builds a drifting K=8 stream that exercises fits,
// refits, reactivations and near-threshold chunks.
func prunedParityStream(seed int64, chunks int) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	var stream []linalg.Vector
	phases := []float64{0, 0.03, 0.8, 0, 1.7, 0.8}
	for c := 0; c < chunks; c++ {
		mix := kRegime(8, 8, phases[c%len(phases)])
		stream = append(stream, mix.SampleN(rng, 160)...)
	}
	return stream
}

// prunedCfg is a K=8 site on 160-record chunks.
func prunedCfg() Config {
	return Config{
		SiteID: 1, Dim: 2, K: 8, Epsilon: 0.5, Delta: 0.01,
		CMax: 4, Seed: 7, ChunkSize: 160,
	}
}

// checkParity replays stream through the interval verdict and through the
// exact scan and requires bit-identical update streams, event tables and
// decision counters. It returns the interval run's stats.
func checkParity(t *testing.T, cfg Config, stream []linalg.Vector) Stats {
	t.Helper()
	fastFP, fastEv, fastSt := replayStream(t, cfg, false, stream)
	refFP, refEv, refSt := replayStream(t, cfg, true, stream)
	if fastFP != refFP {
		t.Fatalf("interval update stream fingerprint %#x != exact %#x", fastFP, refFP)
	}
	if !reflect.DeepEqual(fastEv, refEv) {
		t.Fatalf("event tables differ:\ninterval %+v\nexact    %+v", fastEv, refEv)
	}
	for name, pair := range map[string][2]int{
		"Fits":        {fastSt.Fits, refSt.Fits},
		"Refits":      {fastSt.Refits, refSt.Refits},
		"Reactivated": {fastSt.Reactivated, refSt.Reactivated},
		"Tests":       {fastSt.Tests, refSt.Tests},
		"EMRuns":      {fastSt.EMRuns, refSt.EMRuns},
		"WarmRefits":  {fastSt.WarmRefits, refSt.WarmRefits},
		"ColdRefits":  {fastSt.ColdRefits, refSt.ColdRefits},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: interval %d != exact %d", name, pair[0], pair[1])
		}
	}
	if refSt.PruneHits != 0 || refSt.PruneFallbacks != 0 || refSt.StatCacheMisses != 0 {
		t.Errorf("exact scan recorded interval work: %+v", refSt)
	}
	return fastSt
}

// TestPrunedPathBitIdenticalToExact pins the interval verdict's contract
// on a drifting K=8 stream: the site's update stream, event table and
// decision counters are bit-identical to the exact scan's — and the fast
// path actually decided tests from the interval.
func TestPrunedPathBitIdenticalToExact(t *testing.T) {
	if st := checkParity(t, prunedCfg(), prunedParityStream(99, 24)); st.PruneHits == 0 {
		t.Error("no test was decided by the interval — parity test is vacuous")
	}
}

// TestIntervalParityDaemonShape runs the parity check at the daemons'
// configuration (d = 4, K = 5, ε = 0.02, FitEps 0.25, c_max 4) on a
// stationary stream, a drifting one (Pd 0.5 every 2000 records) and one
// cycling over a palette of three regimes, two chunks each.
func TestIntervalParityDaemonShape(t *testing.T) {
	cfg := Config{SiteID: 1, Dim: 4, K: 5, Epsilon: 0.02, FitEps: 0.25, Delta: 0.01, CMax: 4, Seed: 3}
	m := chunk.Size(cfg.Dim, cfg.Epsilon, cfg.Delta)
	synthetic := func(pd float64, seed int64) stream.Generator {
		g, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: pd, RegimeLen: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var palette []*gaussian.Mixture
	for r := int64(0); r < 3; r++ {
		palette = append(palette, synthetic(0, 500+r).(*stream.Synthetic).CurrentMixture())
	}
	cycling, err := stream.NewAlternating(palette, 2*m, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		gen    stream.Generator
		chunks int
	}{
		{"stationary", synthetic(0, 11), 8},
		{"drifting", synthetic(0.5, 12), 12},
		{"cycling", cycling, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := checkParity(t, cfg, stream.Take(tc.gen, tc.chunks*m))
			if st.PruneHits == 0 {
				t.Error("no test was decided by the interval")
			}
			if tc.name != "stationary" && st.Refits < 2 {
				t.Errorf("%d refits: the stream never exercised a failed test", st.Refits)
			}
		})
	}
}

// TestPrunedParityQuick is the testing/quick property: across random
// regimes (random seeds, drift schedules and component counts K = 1..12)
// the interval verdict produces identical fit/refit event tables and
// update streams to the exact scan.
func TestPrunedParityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick property test")
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(12)
		chunks := 8 + rng.Intn(6)
		var stream []linalg.Vector
		for c := 0; c < chunks; c++ {
			phase := math.Abs(rng.NormFloat64()) * 0.6
			stream = append(stream, kRegime(k, 6+2*rng.Float64(), phase).SampleN(rng, 160)...)
		}
		cfg := prunedCfg()
		cfg.K = k
		cfg.Seed = seed
		fastFP, fastEv, _ := replayStream(t, cfg, false, stream)
		refFP, refEv, _ := replayStream(t, cfg, true, stream)
		if fastFP != refFP || len(fastEv) != len(refEv) {
			return false
		}
		for i := range fastEv {
			if fastEv[i] != refEv[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63n(1 << 30))
		},
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryDoesNotPerturbPrunedPath asserts bit-identical output with
// telemetry on and off while the interval verdict is active.
func TestTelemetryDoesNotPerturbPrunedPath(t *testing.T) {
	stream := prunedParityStream(123, 12)
	plainFP, _, plainSt := replayStream(t, prunedCfg(), false, stream)
	teleCfg := prunedCfg()
	reg := telemetry.NewRegistry()
	teleCfg.Telemetry = reg
	teleFP, _, teleSt := replayStream(t, teleCfg, false, stream)
	if plainFP != teleFP {
		t.Fatalf("telemetry changed the update stream: %#x != %#x", teleFP, plainFP)
	}
	if plainSt != teleSt {
		t.Fatalf("telemetry changed stats: %+v != %+v", teleSt, plainSt)
	}
	if teleSt.PruneHits == 0 {
		t.Error("no test was decided by the interval")
	}
	// Counters mirror the stats the site already kept.
	counters := reg.Snapshot().Counters
	if got := counters["site.prune_hits"]; got != int64(teleSt.PruneHits) {
		t.Errorf("site.prune_hits = %d, stats say %d", got, teleSt.PruneHits)
	}
	if got := counters["site.prune_fallbacks"]; got != int64(teleSt.PruneFallbacks) {
		t.Errorf("site.prune_fallbacks = %d, stats say %d", got, teleSt.PruneFallbacks)
	}
	if got := counters["site.stat_cache_hits"]; got != int64(teleSt.StatCacheHits) {
		t.Errorf("site.stat_cache_hits = %d, stats say %d", got, teleSt.StatCacheHits)
	}
	if got := counters["site.stat_cache_misses"]; got != int64(teleSt.StatCacheMisses) {
		t.Errorf("site.stat_cache_misses = %d, stats say %d", got, teleSt.StatCacheMisses)
	}
}

// TestFallbackJournalsExactMargin sets FitEps to a chunk's exact J_fit
// margin. The interval brackets that margin, so it cannot clear FitEps by
// its guard: the exact scan decides, and the "prune-fallback" event
// carries the margin that scan computed.
func TestFallbackJournalsExactMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	first, second := regime(0).SampleN(rng, 200), regime(0.3).SampleN(rng, 200)
	replay := func(fitEps float64, stream ...[]linalg.Vector) (*Site, *telemetry.Registry) {
		cfg := testConfig()
		cfg.FitEps = fitEps
		cfg.Telemetry = telemetry.NewRegistry()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range stream {
			for _, x := range c {
				if _, err := s.Observe(x); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, cfg.Telemetry
	}
	trained, _ := replay(0.1, first)
	ref := trained.Current()
	margin := math.Abs(ref.Mixture.AvgLogLikelihood(second) - ref.RefAvgLL)

	s, reg := replay(margin, first, second)
	if st := s.Stats(); st.PruneFallbacks != 1 || st.PruneHits != 0 || st.Fits != 1 {
		t.Fatalf("want one fit decided by the exact fallback, got %+v", st)
	}
	var fallbacks []telemetry.Event
	for _, e := range reg.Journal().Tail(0) {
		if e.Kind == "prune-fallback" {
			fallbacks = append(fallbacks, e)
		}
	}
	if len(fallbacks) != 1 || fallbacks[0].Value != margin {
		t.Fatalf("prune-fallback events %+v, want one carrying the exact margin %v", fallbacks, margin)
	}
}

// TestSiteSteadyStatePrunedZeroAlloc: the zero-alloc ingest contract must
// hold at K=16 too, with the interval deciding every chunk.
func TestSiteSteadyStatePrunedZeroAlloc(t *testing.T) {
	cfg := prunedCfg()
	cfg.K = 16
	// A K=16 EM fit on 160-record chunks fluctuates chunk to chunk; a
	// generous ε keeps the stream in pure test mode so the measurement
	// isolates the J_fit scoring path.
	cfg.FitEps = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	pool := kRegime(16, 10, 0).SampleN(rng, 1600)
	for _, x := range pool {
		if _, err := s.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Refits != 1 {
		t.Fatalf("warmup refit count = %d, want 1 (stationary)", s.Stats().Refits)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		ups, err := s.Observe(pool[i%len(pool)])
		if err != nil {
			t.Fatal(err)
		}
		if ups != nil {
			t.Fatalf("unexpected refit in steady state: %+v", ups)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("K=16 steady-state Observe allocates %v per record, want 0", avg)
	}
	if s.Stats().PruneHits == 0 {
		t.Error("steady state never used the interval verdict")
	}
}

// TestRefAvgLLIsChunkScan pins every installed model's Avg_Pr0 to the exact
// chunk scan chunkAvgLL would compute for it, bit for bit, whichever fitter
// produced the model: cold and warm plain-EM refits (whose reference is the
// fit's own final scan), audited refits won by either arm, SharpTest's
// max-component statistic and incomplete-data EM.
func TestRefAvgLLIsChunkScan(t *testing.T) {
	base := Config{
		SiteID: 1, Dim: 4, K: 3, Epsilon: 0.1, Delta: 0.01,
		CMax: 4, Seed: 1, ChunkSize: 300,
	}
	notes := map[string]int{}
	run := func(name string, cfg Config, auditEvery int, missing float64) {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if auditEvery > 0 {
			s.auditEvery = auditEvery
		}
		rng := rand.New(rand.NewSource(9))
		refits := 0
		for d := 0; d <= 14; d++ {
			data := driftMix(0.3*float64(d)).SampleN(rng, s.ChunkSize())
			for _, x := range data {
				if rng.Float64() < missing {
					x[rng.Intn(len(x))] = math.NaN()
				}
			}
			before := s.Stats().Refits
			if _, err := s.ProcessChunk(data); err != nil {
				t.Fatalf("%s: chunk %d: %v", name, d, err)
			}
			if s.Stats().Refits == before {
				continue
			}
			refits++
			notes[s.fitNote]++
			got, want := s.Current().RefAvgLL, s.chunkAvgLL(s.Current().Mixture)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: chunk %d (%s refit): RefAvgLL = %v, chunk scan = %v",
					name, d, s.fitNote, got, want)
			}
		}
		if refits < 2 {
			t.Fatalf("%s: %d refits over the drift stream, want at least 2", name, refits)
		}
	}
	run("plain", base, 0, 0)
	run("audit-every-refit", base, 1, 0)
	sharp := base
	sharp.SharpTest = true
	run("sharp", sharp, 1, 0)
	run("missing-attributes", base, 0, 0.2)
	for _, note := range []string{"cold", "warm", "audit-cold-win", "audit-warm-win", "incomplete"} {
		if notes[note] == 0 {
			t.Errorf("no refit took the %q path: %v", note, notes)
		}
	}
	t.Logf("refits by path: %v", notes)
}
