// Sensornet: the Section-7 multi-layer extension — a tree-structured sensor
// network (9 leaf sensors under 3 aggregators under 1 root) where every
// internal node runs CluDistream over its children and only uploads when
// its locally-observed model changes. Sensor readings are noisy (the
// framework's EM core is built for exactly that), and one sensor drifts to
// a new regime mid-run so the change can be watched propagating to the
// root.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cludistream/internal/coordinator"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/tree"
)

// sensorStream models one sensor: (temperature, humidity) readings around
// a cluster center with measurement noise and a 2% chance per reading of a
// corrupted outlier — the "noisy or incomplete records" of the paper's
// introduction.
type sensorStream struct {
	rng    *rand.Rand
	center linalg.Vector
}

func (s *sensorStream) next() linalg.Vector {
	if s.rng.Float64() < 0.02 {
		return linalg.Vector{s.rng.Float64() * 50, s.rng.Float64() * 100} // corrupted
	}
	return linalg.Vector{
		s.center[0] + s.rng.NormFloat64()*0.8,
		s.center[1] + s.rng.NormFloat64()*2.5,
	}
}

func main() {
	// Three rooms, one aggregator each: Build hangs leaf i under aggregator
	// i % 3, so sensor i sits in room i % 3.
	topo, err := tree.Spec{Leaves: 9, AggLayers: 1, FanOut: 3, Link: tree.LinkSpec{Latency: 0.05}}.Build()
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tree.NewDeployment(tree.Config{
		Topology: topo,
		Site: site.Config{
			Dim: 2, K: 2, Epsilon: 0.1, FitEps: 1.0, Delta: 0.01, ChunkSize: 250,
		},
		Coord: coordinator.Config{Dim: 2},
		Seed:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor network: %d leaf sensors under %d aggregators under 1 root\n",
		dep.NumSites(), dep.NumNodes()-1)

	// Each aggregator's sensors share a climate.
	sensors := make([]*sensorStream, dep.NumSites())
	for i := range sensors {
		room := i % 3
		sensors[i] = &sensorStream{
			rng:    rand.New(rand.NewSource(int64(50 + i))),
			center: linalg.Vector{18 + float64(room)*4, 40 + float64(room)*10},
		}
	}
	// run feeds every sensor n readings, then delivers what is in flight.
	run := func(n int) {
		for rec := 0; rec < n; rec++ {
			for i := range sensors {
				if err := dep.Feed(i, sensors[i].next()); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := dep.Drain(); err != nil {
			log.Fatal(err)
		}
	}

	run(1500)
	fmt.Printf("phase 1 (stable climates): root model K=%d, upload traffic %d bytes (%d into the root)\n",
		dep.RootMixture().K(), dep.TotalBytes(), dep.LayerBytes()[0])
	before, rootBefore := dep.TotalBytes(), dep.LayerBytes()[0]

	// Sensor 0's room heats up: a genuine distribution change.
	sensors[0].center = linalg.Vector{35, 20}
	run(1500)
	fmt.Printf("phase 2 (sensor 0 drifted): root model K=%d, +%d upload bytes (+%d into the root)\n",
		dep.RootMixture().K(), dep.TotalBytes()-before, dep.LayerBytes()[0]-rootBefore)

	// The leaf's event table records the change (Section 7: change
	// detection = fit-test failure).
	leaf := dep.LeafSite(0)
	fmt.Printf("sensor 0 event table: %d spans, detected changes at chunks %v\n",
		leaf.Events().Len(), leaf.Events().Changes())

	gm := dep.RootMixture()
	fmt.Println("root's merged climate model:")
	for j := 0; j < gm.K(); j++ {
		c := gm.Component(j)
		fmt.Printf("  %.0f%% of readings around %.1f°C / %.0f%% humidity\n",
			100*gm.Weight(j), c.Mean()[0], c.Mean()[1])
	}
}
