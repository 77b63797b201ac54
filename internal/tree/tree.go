// Package tree is the one simulated runtime, and it makes the multi-layer
// networks of Section 7 first-class: a declarative topology — aggregator
// nodes with arbitrary fan-in and heterogeneous per-link latency/bandwidth
// — deployed over the netsim virtual clock, with every aggregator running
// the real coordinator-merge plus upload-on-change logic of `coordd
// -connect` (hier.UploadMirror). The flat star of the base paper is the
// topology with no aggregators; the cludistream facade runs exactly that.
// Every edge carries its frames through the daemons' own delivery
// protocol (internal/sender), driven on the virtual clock, and receivers
// dedupe them to exactly-once. Interior
// crashes recover through the durable checkpoint/WAL path and re-join
// their parent under a bumped epoch, exactly like a real aggregator
// process restarting.
package tree

import (
	"fmt"
	"math"
)

// LinkSpec is the physical shape of one edge: propagation latency in
// simulated seconds and an optional finite bandwidth in bytes/second
// (0 = infinite).
type LinkSpec struct {
	Latency   float64 `json:"latency"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
}

func (l LinkSpec) validate(what string) error {
	if math.IsNaN(l.Latency) || math.IsInf(l.Latency, 0) || l.Latency < 0 {
		return fmt.Errorf("tree: %s latency %v", what, l.Latency)
	}
	if math.IsNaN(l.Bandwidth) || math.IsInf(l.Bandwidth, 0) || l.Bandwidth < 0 {
		return fmt.Errorf("tree: %s bandwidth %v", what, l.Bandwidth)
	}
	return nil
}

// AggSpec declares one aggregator node. Aggregator i (0-based) is internal
// node index i+1; the root coordinator is node 0. Parent is the internal
// node index this aggregator uploads to and must be smaller than i+1, so a
// topology literal is acyclic by construction.
type AggSpec struct {
	Parent int      `json:"parent"`
	Link   LinkSpec `json:"link"`
}

// LeafSpec attaches one site to an internal node.
type LeafSpec struct {
	Parent int      `json:"parent"`
	Link   LinkSpec `json:"link"`
}

// Topology is a declarative tree: node 0 is the root coordinator,
// aggregator i is node i+1, and every leaf is a site under some internal
// node. The zero Aggs value is the flat star deployment of the base paper.
type Topology struct {
	Aggs   []AggSpec  `json:"aggs,omitempty"`
	Leaves []LeafSpec `json:"leaves"`
}

// NumNodes returns the internal node count (root + aggregators).
func (t *Topology) NumNodes() int { return 1 + len(t.Aggs) }

// NumSites returns the leaf count.
func (t *Topology) NumSites() int { return len(t.Leaves) }

// Validate checks structural soundness: every aggregator's parent precedes
// it (acyclicity), every parent index is in range, no aggregator is
// childless, and every link spec is sane.
func (t *Topology) Validate() error {
	if len(t.Leaves) == 0 {
		return fmt.Errorf("tree: topology without leaves")
	}
	children := make([]int, t.NumNodes())
	for i, a := range t.Aggs {
		node := i + 1
		if a.Parent < 0 || a.Parent >= node {
			return fmt.Errorf("tree: agg %d parent %d (want 0..%d)", i, a.Parent, node-1)
		}
		children[a.Parent]++
		if err := a.Link.validate(fmt.Sprintf("agg %d uplink", i)); err != nil {
			return err
		}
	}
	for i, lf := range t.Leaves {
		if lf.Parent < 0 || lf.Parent >= t.NumNodes() {
			return fmt.Errorf("tree: leaf %d parent %d (want 0..%d)", i, lf.Parent, t.NumNodes()-1)
		}
		children[lf.Parent]++
		if err := lf.Link.validate(fmt.Sprintf("leaf %d uplink", i)); err != nil {
			return err
		}
	}
	for node := 1; node < t.NumNodes(); node++ {
		if children[node] == 0 {
			return fmt.Errorf("tree: agg %d (node %d) has no children", node-1, node)
		}
	}
	return nil
}

// NodeDepth returns the depth of internal node n (root = 0).
func (t *Topology) NodeDepth(n int) int {
	depth := 0
	for n != 0 {
		n = t.Aggs[n-1].Parent
		depth++
	}
	return depth
}

// Depth returns the maximum number of edges from any leaf to the root.
func (t *Topology) Depth() int {
	max := 0
	for _, lf := range t.Leaves {
		if d := t.NodeDepth(lf.Parent) + 1; d > max {
			max = d
		}
	}
	return max
}

// Spec is the declarative shape of a balanced deployment: Leaves sites
// behind AggLayers layers of fan-in aggregators, every edge sharing the
// default Link shape. Build assigns leaves round-robin to the bottom
// aggregator layer and shrinks each layer above by FanOut.
type Spec struct {
	Leaves    int
	AggLayers int // aggregator layers between the sites and the root (0 = flat)
	FanOut    int // children per aggregator
	Link      LinkSpec
}

// Build constructs the balanced topology.
func (s Spec) Build() (Topology, error) {
	if s.Leaves < 1 {
		return Topology{}, fmt.Errorf("tree: spec with %d leaves", s.Leaves)
	}
	if s.AggLayers < 0 {
		return Topology{}, fmt.Errorf("tree: spec with %d agg layers", s.AggLayers)
	}
	if s.AggLayers > 0 && s.FanOut < 1 {
		return Topology{}, fmt.Errorf("tree: spec with fan-out %d", s.FanOut)
	}
	var topo Topology
	// Layer sizes from the bottom (next to the leaves) upward.
	sizes := make([]int, s.AggLayers)
	below := s.Leaves
	for l := s.AggLayers - 1; l >= 0; l-- {
		n := (below + s.FanOut - 1) / s.FanOut
		if n < 1 {
			n = 1
		}
		sizes[l] = n
		below = n
	}
	// Emit aggregators top-down so parents precede children.
	offset := make([]int, s.AggLayers) // node index of each layer's first agg
	for l := 0; l < s.AggLayers; l++ {
		offset[l] = topo.NumNodes()
		for i := 0; i < sizes[l]; i++ {
			parent := 0
			if l > 0 {
				parent = offset[l-1] + i%sizes[l-1]
			}
			topo.Aggs = append(topo.Aggs, AggSpec{Parent: parent, Link: s.Link})
		}
	}
	for i := 0; i < s.Leaves; i++ {
		parent := 0
		if s.AggLayers > 0 {
			bottom := s.AggLayers - 1
			parent = offset[bottom] + i%sizes[bottom]
		}
		topo.Leaves = append(topo.Leaves, LeafSpec{Parent: parent, Link: s.Link})
	}
	if err := topo.Validate(); err != nil {
		return Topology{}, err
	}
	return topo, nil
}
