package tree

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// Layers groups internal node indices by depth: Layers()[0] = {0} (the
// root), Layers()[1] = the aggregators directly under it, and so on.
func (t *Topology) Layers() [][]int {
	var layers [][]int
	for n := 0; n < t.NumNodes(); n++ {
		d := t.NodeDepth(n)
		for len(layers) <= d {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], n)
	}
	return layers
}

// FuzzTopology feeds arbitrary JSON through the path a topology file takes
// (cmd/dst replay -scenario reads them): decode, Validate, and — for a
// valid topology small enough to run — a deployment that feeds every leaf
// a few chunks and drains. Nothing may panic, Depth and Layers must
// return, and a topology Validate accepts must deploy and run cleanly.
func FuzzTopology(f *testing.F) {
	for _, s := range []Spec{
		{Leaves: 1},
		{Leaves: 5, AggLayers: 1, FanOut: 2, Link: LinkSpec{Latency: 0.01}},
		{Leaves: 9, AggLayers: 2, FanOut: 3, Link: LinkSpec{Latency: 0.02, Bandwidth: 5e4}},
	} {
		topo, err := s.Build()
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(topo)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The topology of a DST tree scenario artifact: 110 leaves behind 8
	// aggregators on heterogeneous links.
	artifact, err := os.ReadFile("testdata/dst-tree-topology.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(artifact)

	siteCfg := site.Config{Dim: 1, K: 2, Epsilon: 0.5, Delta: 0.01, ChunkSize: 10}
	f.Fuzz(func(t *testing.T, data []byte) {
		var topo Topology
		if json.Unmarshal(data, &topo) != nil || topo.Validate() != nil {
			return
		}
		if depth, layers := topo.Depth(), topo.Layers(); depth < 1 || len(layers) > depth {
			t.Fatalf("depth %d with %d layers of internal nodes", depth, len(layers))
		}
		if topo.NumSites() > 64 {
			return
		}
		d, err := NewDeployment(Config{Topology: topo, Site: siteCfg, Coord: testCoordCfg(), Seed: 1})
		if err != nil {
			t.Fatalf("valid topology rejected: %v", err)
		}
		rng := rand.New(rand.NewSource(1))
		for rec := 0; rec < 2*siteCfg.ChunkSize; rec++ {
			for i := 0; i < d.NumSites(); i++ {
				if err := d.Feed(i, linalg.Vector{4*float64(1-2*(rec%2)) + rng.NormFloat64()}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}
