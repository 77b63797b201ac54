package persist

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

func builtSite(t *testing.T) *site.Site {
	t.Helper()
	s, err := site.New(site.Config{
		SiteID: 3, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: 1, ChunkSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	regime := func(mean float64) *gaussian.Mixture {
		return gaussian.MustMixture(
			[]float64{0.5, 0.5},
			[]*gaussian.Component{
				gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
				gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
			})
	}
	for _, mean := range []float64{0, 50, -50} {
		for i := 0; i < 200*3; i++ {
			if _, err := s.Observe(regime(mean).Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := builtSite(t)
	a := FromSite(s)
	var buf bytes.Buffer
	if err := Save(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SiteID != 3 || got.Dim != 1 || got.ChunkSize != 200 || got.ChunksSeen != 9 {
		t.Fatalf("header = %+v", got)
	}
	if len(got.Models) != len(a.Models) {
		t.Fatalf("models = %d, want %d", len(got.Models), len(a.Models))
	}
	for i := range a.Models {
		am, gm := a.Models[i], got.Models[i]
		if am.ID != gm.ID || am.Counter != gm.Counter || am.RefAvgLL != gm.RefAvgLL {
			t.Fatalf("model %d metadata differs", i)
		}
		for j := 0; j < am.Mixture.K(); j++ {
			if !am.Mixture.Component(j).Equal(gm.Mixture.Component(j), 0) {
				t.Fatalf("model %d component %d differs", i, j)
			}
			if am.Mixture.Weight(j) != gm.Mixture.Weight(j) {
				t.Fatalf("model %d weight %d differs", i, j)
			}
		}
	}
	if got.Events.Len() != a.Events.Len() {
		t.Fatalf("events = %d, want %d", got.Events.Len(), a.Events.Len())
	}
	for i := 0; i < a.Events.Len(); i++ {
		if got.Events.At(i) != a.Events.At(i) {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestArchiveAnswersSameQueriesAsLiveSite(t *testing.T) {
	s := builtSite(t)
	a := FromSite(s)
	var buf bytes.Buffer
	if err := Save(&buf, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := s.History()
	// ModelAt parity across every chunk.
	for chunk := 1; chunk <= s.ChunksSeen(); chunk++ {
		liveID, _ := h.ModelAt(chunk)
		gotID, ok := loaded.ModelAt(chunk)
		if !ok {
			t.Fatalf("archive has no model for chunk %d", chunk)
		}
		if gotID != liveID {
			t.Fatalf("chunk %d: archive model %d vs live %d", chunk, gotID, liveID)
		}
	}
	if _, ok := loaded.ModelAt(0); ok {
		t.Fatal("chunk 0 should be out of range")
	}
	if _, ok := loaded.ModelAt(100); ok {
		t.Fatal("future chunk should be out of range")
	}

	// Window mixture parity with the live site on several windows.
	for _, w := range [][2]int{{1, 3}, {4, 6}, {2, 8}, {1, 9}} {
		live := h.Mixture(w[0], w[1])
		arch := loaded.Mixture(w[0], w[1])
		if (live == nil) != (arch == nil) {
			t.Fatalf("window %v: nil mismatch", w)
		}
		if live == nil {
			continue
		}
		if live.K() != arch.K() {
			t.Fatalf("window %v: K %d vs %d", w, arch.K(), live.K())
		}
		probe := []linalg.Vector{{0}, {50}, {-50}}
		if math.Abs(live.AvgLogLikelihood(probe)-arch.AvgLogLikelihood(probe)) > 1e-12 {
			t.Fatalf("window %v: likelihoods differ", w)
		}
	}

	// Landmark parity.
	liveLM := h.Landmark()
	archLM := loaded.Landmark()
	if liveLM.K() != archLM.K() {
		t.Fatalf("landmark K %d vs %d", archLM.K(), liveLM.K())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage magic accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := Load(&buf); err == nil {
		t.Fatal("future version accepted")
	}
	// Truncated archive.
	s := builtSite(t)
	var full bytes.Buffer
	if err := Save(&full, FromSite(s)); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 20, full.Len() / 2, full.Len() - 1} {
		if _, err := Load(bytes.NewReader(full.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEmptyArchive(t *testing.T) {
	a := &SiteArchive{SiteID: 1, Dim: 2, History: site.History{ChunkSize: 100}}
	var buf bytes.Buffer
	if err := Save(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Landmark() != nil {
		t.Fatal("empty archive produced a mixture")
	}
	if got.Mixture(1, 10) != nil {
		t.Fatal("empty archive produced a window mixture")
	}
	if _, ok := got.ModelAt(1); ok {
		t.Fatal("empty archive claims a model")
	}
}
