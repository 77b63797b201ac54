// Package query is the lock-free serving tier over the coordinator's
// global mixture. The coordinator (or a shard-reduce layer) publishes
// immutable, versioned Snapshots through a Publisher; readers load the
// current snapshot with a single atomic pointer read and score against it
// without ever touching coordinator state — RCU semantics: writers swap,
// readers never block, old snapshots stay valid for as long as anyone
// holds them.
//
// A Snapshot pins a deep copy of the mixture (fresh mean/cov backing
// arrays, recomputed Cholesky — bit-identical because the decomposition is
// deterministic), precomputed log-weights, and a kd-index over component
// means. The three read ops — Classify (argmax posterior), LogDensity
// (log-likelihood) and TopK (nearest components) — are allocation-free
// given a caller-owned Scratch.
package query

import (
	"fmt"
	"math"

	"cludistream/internal/gaussian"
	"cludistream/internal/kdtree"
	"cludistream/internal/linalg"
)

// Snapshot is one immutable published version of the global mixture.
// Every field is frozen at publish time; the read ops are safe for any
// number of concurrent goroutines without synchronization.
type Snapshot struct {
	version     uint64
	mass        float64
	publishedAt float64 // publisher clock seconds

	weights []float64 // verbatim from the source mixture (already normalized)
	logW    []float64
	comps   []*gaussian.Component // deep copies — no sharing with the coordinator
	kd      *kdtree.Tree          // component means, IDs = component indices
	dim     int
}

// newSnapshot deep-copies mix so that no byte of the snapshot is shared
// with coordinator state. Weights are taken verbatim (no renormalization:
// the source mixture already normalized once, and dividing again by a
// sum≈1 could perturb last-ulp bits, breaking the DST prefix-equality
// invariant).
func newSnapshot(mix *gaussian.Mixture, version uint64, mass, now float64) (*Snapshot, error) {
	if mix == nil || mix.K() == 0 {
		return nil, fmt.Errorf("query: cannot snapshot empty mixture")
	}
	k, dim := mix.K(), mix.Dim()
	sn := &Snapshot{
		version:     version,
		mass:        mass,
		publishedAt: now,
		weights:     mix.Weights(), // Weights() returns a fresh copy
		logW:        make([]float64, k),
		comps:       make([]*gaussian.Component, k),
		kd:          kdtree.New(dim),
		dim:         dim,
	}
	for j := 0; j < k; j++ {
		src := mix.Component(j)
		// NewComponent clones mean and cov into fresh arrays and
		// recomputes the (deterministic) Cholesky, so the copy is deep
		// and bit-identical.
		c, err := gaussian.NewComponent(src.Mean(), src.Cov(), 0)
		if err != nil {
			return nil, fmt.Errorf("query: snapshot component %d: %w", j, err)
		}
		sn.comps[j] = c
		sn.logW[j] = math.Log(sn.weights[j])
		sn.kd.Insert(j, c.Mean())
	}
	return sn, nil
}

// Version is the coordinator mixture version this snapshot was built from
// (sum of shard versions for a reduced snapshot).
func (sn *Snapshot) Version() uint64 { return sn.version }

// Mass is the total record weight behind the mixture (sum of shard masses
// for a reduced snapshot).
func (sn *Snapshot) Mass() float64 { return sn.mass }

// PublishedAt is the publisher clock reading (float64 seconds) at publish.
func (sn *Snapshot) PublishedAt() float64 { return sn.publishedAt }

// K returns the number of components.
func (sn *Snapshot) K() int { return len(sn.comps) }

// Dim returns the data dimensionality.
func (sn *Snapshot) Dim() int { return sn.dim }

// Weight returns component j's mixing weight.
func (sn *Snapshot) Weight(j int) float64 { return sn.weights[j] }

// Component returns component j (immutable, owned by the snapshot).
func (sn *Snapshot) Component(j int) *gaussian.Component { return sn.comps[j] }

// Mixture rebuilds a gaussian.Mixture view of the snapshot. It allocates;
// use the read ops for serving. Intended for tests and invariant checks.
func (sn *Snapshot) Mixture() (*gaussian.Mixture, error) {
	return gaussian.NewMixture(sn.weights, sn.comps)
}

// Scratch holds the per-goroutine workspace the read ops need. One
// Scratch must not be used by two goroutines at once; acquire one per
// worker (or via the HTTP handler's pool) and reuse it across calls.
type Scratch struct {
	diff, half linalg.Vector
	nbrs       []kdtree.Neighbor
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards, so steady-state queries do not allocate.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) ensure(dim int) {
	if len(s.diff) != dim {
		s.diff = make(linalg.Vector, dim)
		s.half = make(linalg.Vector, dim)
	}
}

// Classification is the result of Classify: the argmax-posterior
// component, its log posterior log Pr(j|x), and the total log density
// log p(x). Returned by value — no heap allocation.
type Classification struct {
	Component    int
	LogPosterior float64
	LogDensity   float64
}

// Classify assigns x to the highest-posterior component. Zero
// allocations; bit-stable for a given snapshot.
func (sn *Snapshot) Classify(x linalg.Vector, s *Scratch) Classification {
	s.ensure(sn.dim)
	best, bestLP := 0, math.Inf(-1)
	total := math.Inf(-1)
	for j, c := range sn.comps {
		lp := sn.logW[j] + c.LogProbScratch(x, s.diff, s.half)
		if lp > bestLP {
			best, bestLP = j, lp
		}
		total = gaussian.LogAdd(total, lp)
	}
	return Classification{Component: best, LogPosterior: bestLP - total, LogDensity: total}
}

// LogDensity returns log p(x) under the snapshot mixture, reduced with
// gaussian.LogAdd like gaussian.Mixture.LogPDF (same component order →
// bit-identical result). Zero allocations.
func (sn *Snapshot) LogDensity(x linalg.Vector, s *Scratch) float64 {
	s.ensure(sn.dim)
	total := math.Inf(-1)
	for j, c := range sn.comps {
		total = gaussian.LogAdd(total, sn.logW[j]+c.LogProbScratch(x, s.diff, s.half))
	}
	return total
}

// Neighbor is a top-k result: ID is the component index, DistSq the
// squared Euclidean distance from the query point to the component mean.
type Neighbor = kdtree.Neighbor

// TopK returns the k components whose means are nearest to x in Euclidean
// distance, closest first (Neighbor.ID is the component index). k larger
// than K() is clamped. The returned slice aliases the Scratch and is valid
// until the next TopK call on the same Scratch. Zero allocations once the
// Scratch buffer has grown to k.
func (sn *Snapshot) TopK(x linalg.Vector, k int, s *Scratch) []kdtree.Neighbor {
	if cap(s.nbrs) < k {
		s.nbrs = make([]kdtree.Neighbor, 0, k)
	}
	s.nbrs = sn.kd.NearestKInto(x, k, s.nbrs[:0])
	return s.nbrs
}
