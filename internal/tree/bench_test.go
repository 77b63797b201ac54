package tree

import (
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/linalg"
	"cludistream/internal/transport"
)

// BenchmarkTreeLoad500 is the scale proof for multi-layer deployments:
// 500 simulated sites behind two fan-in aggregator layers (63 + 8
// aggregators, fan-out 8), each site streaming two chunks — 100k records
// per iteration — with exact upload-on-change replication at every hop
// on the virtual clock. The custom metrics pin the aggregation dividend:
// root-mem-B is the root coordinator's memory holding one pseudo-model
// per direct child, while flat-mem-B is what a single coordinator
// serving the same 500 sites directly would hold — the per-layer
// Theorem-3 bound in practice. Run with -benchtime 1x: each iteration is
// a full deployment.
func BenchmarkTreeLoad500(b *testing.B) {
	topo, err := Spec{Leaves: 500, AggLayers: 2, FanOut: 8, Link: LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		b.Fatal(err)
	}
	const recordsPerLeaf = 200 // two chunks per site
	regimes := []float64{0, 200, -200}
	var root, flat *coordinator.Coordinator
	var wireBytes int
	for i := 0; i < b.N; i++ {
		ref, err := coordinator.New(testCoordCfg())
		if err != nil {
			b.Fatal(err)
		}
		d, err := NewDeployment(Config{
			Topology: topo, Site: testSiteCfg(), Coord: testCoordCfg(),
			Seed: int64(i + 1), ExactSync: true,
			OnEmit: func(msg transport.Message) {
				if err := applyEmitted(ref, msg); err != nil {
					b.Fatalf("reference apply (site %d): %v", msg.SiteID, err)
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for rec := 0; rec < recordsPerLeaf; rec++ {
			for s := 0; s < d.NumSites(); s++ {
				mean := regimes[s%len(regimes)]
				x := linalg.Vector{mean + 4*float64(1-2*(rec%2)) + rng.NormFloat64()}
				if err := d.Feed(s, x); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := d.Drain(); err != nil {
			b.Fatal(err)
		}
		if d.Pending() != 0 {
			b.Fatalf("%d frames still queued after drain", d.Pending())
		}
		root, flat, wireBytes = d.NodeCoordinator(0), ref, d.TotalBytes()
	}
	if root.MemoryBytes() >= flat.MemoryBytes() {
		b.Fatalf("root coordinator memory %d >= flat deployment's %d — fan-in bought nothing",
			root.MemoryBytes(), flat.MemoryBytes())
	}
	b.ReportMetric(float64(topo.NumSites()), "sites")
	b.ReportMetric(float64(topo.NumNodes()-1), "aggs")
	b.ReportMetric(float64(root.MemoryBytes()), "root-mem-B")
	b.ReportMetric(float64(flat.MemoryBytes()), "flat-mem-B")
	b.ReportMetric(float64(wireBytes), "wire-B")
}
