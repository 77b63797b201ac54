// Evolving: change detection and evolving analysis (Section 7) — the
// event-driven alternative to CluStream's pyramidal snapshots. A site
// watches a stream that cycles through market regimes; afterwards we query
// the event table for arbitrary windows and rebuild the mixture that
// governed any past period, plus run a sliding-window deployment whose
// deletions age old regimes out of the coordinator.
//
// Run with:
//
//	go run ./examples/evolving
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/stream"

	cludistream "cludistream"
)

func main() {
	// Three market regimes: calm, volatile, crash — each a 1-d mixture of
	// return behaviours.
	mk := func(mu, spread float64) *gaussian.Mixture {
		return gaussian.MustMixture(
			[]float64{0.7, 0.3},
			[]*gaussian.Component{
				gaussian.Spherical(linalg.Vector{mu}, spread),
				gaussian.Spherical(linalg.Vector{mu * 2}, spread*3),
			})
	}
	regimes := []*gaussian.Mixture{mk(0.5, 0.2), mk(-1, 1.5), mk(-8, 2)}
	const chunkSize = 250
	gen, err := stream.NewAlternating(regimes, 4*chunkSize, 11)
	if err != nil {
		log.Fatal(err)
	}

	st, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 1.0, Delta: 0.01,
		CMax: 4, Seed: 2, ChunkSize: chunkSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	const updates = 24 * chunkSize // 6 regime phases
	for i := 0; i < updates; i++ {
		if _, err := st.Observe(gen.Next()); err != nil {
			log.Fatal(err)
		}
	}

	// Change detection: every event-table boundary is a detected
	// distribution change.
	fmt.Printf("processed %d records in %d chunks\n", updates, st.ChunksSeen())
	fmt.Printf("detected distribution changes at chunks %v\n", st.Events().Changes())
	fmt.Printf("model list: %d models (the multi-test strategy re-activates repeats)\n", len(st.Models()))

	// Evolving analysis: rebuild the model for arbitrary past windows.
	h := st.History()
	for _, w := range [][2]int{{1, 4}, {5, 8}, {9, 12}, {1, 24}} {
		m := h.Mixture(w[0], w[1])
		if m == nil {
			continue
		}
		probe := []linalg.Vector{{0.5}, {-1}, {-8}}
		fmt.Printf("window chunks %2d-%2d: %d components, p(calm)=%.3f p(volatile)=%.3f p(crash)=%.3f\n",
			w[0], w[1], m.K(), m.PDF(probe[0]), m.PDF(probe[1]), m.PDF(probe[2]))
	}

	// Sliding windows end-to-end: deletions age expired regimes out of the
	// coordinator (Section 7's negative-weight messages).
	sys, err := cludistream.New(cludistream.Config{
		NumSites: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 1.0, Delta: 0.01,
		Seed: 2, ChunkSize: chunkSize, SlidingHorizonChunks: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for phase, m := range regimes {
		for i := 0; i < 8*chunkSize; i++ {
			if err := sys.Feed(0, m.Sample(rng)); err != nil {
				log.Fatal(err)
			}
		}
		_ = phase
	}
	if err := sys.Drain(); err != nil {
		log.Fatal(err)
	}
	gm := sys.GlobalMixture()
	fmt.Printf("\nsliding-window coordinator (horizon 4 chunks) after the crash regime:\n")
	fmt.Printf("  %d live groups; p(crash)=%.3f p(calm)=%.4f — old regimes aged out\n",
		len(sys.Coordinator().Groups()), gm.PDF(linalg.Vector{-8}), gm.PDF(linalg.Vector{0.5}))
}
