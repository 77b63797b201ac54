package site

import (
	"math/rand"
	"testing"

	"cludistream/internal/linalg"
	"cludistream/internal/telemetry"
)

// BenchmarkSiteRefit drives a gradual-drift stream (mean moves 0.3 per
// chunk, past ε but inside the warm-start margin) through an always-cold
// site and a warm-starting one. The em-iters/fit metric is the warm-start
// number: warm seeding plus the relative early-stop should cut EM
// iterations per refit well below the cold k-means++ baseline on the same
// stream.
func BenchmarkSiteRefit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var data []linalg.Vector
	for d := 0; d <= 14; d++ {
		data = append(data, driftMix(0.3*float64(d)).SampleN(rng, 300)...)
	}
	run := func(b *testing.B, alwaysCold bool) {
		reg := telemetry.NewRegistry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := New(Config{
				SiteID: 1, Dim: 4, K: 3, Epsilon: 0.1, Delta: 0.01,
				Seed: 1, ChunkSize: 300, Telemetry: reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			st.alwaysCold = alwaysCold
			for _, x := range data {
				if _, err := st.Observe(x); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if fits := reg.Counter("em.fits").Value(); fits > 0 {
			b.ReportMetric(float64(reg.Counter("em.iterations").Value())/float64(fits), "em-iters/fit")
		}
		if n := float64(b.N); n > 0 {
			b.ReportMetric(float64(reg.Counter("site.warm_refits").Value())/n, "warm-refits")
			b.ReportMetric(float64(reg.Counter("site.warm_fallbacks").Value())/n, "warm-fallbacks")
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}
