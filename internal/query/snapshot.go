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

	mix *gaussian.Mixture // deep copy — no sharing with the coordinator
	kd  *kdtree.Tree      // component means, IDs = component indices
}

// newSnapshot deep-copies mix so that no byte of the snapshot is shared
// with coordinator state. Weights are taken verbatim
// (NewNormalizedMixture: the source mixture already normalized once, and
// dividing again by a sum≈1 could perturb last-ulp bits, breaking the DST
// prefix-equality invariant), so the mixture's log-weights keep their
// bits too.
func newSnapshot(mix *gaussian.Mixture, version uint64, mass, now float64) (*Snapshot, error) {
	if mix == nil || mix.K() == 0 {
		return nil, fmt.Errorf("query: cannot snapshot empty mixture")
	}
	k, dim := mix.K(), mix.Dim()
	comps := make([]*gaussian.Component, k)
	kd := kdtree.New(dim)
	for j := range comps {
		src := mix.Component(j)
		// NewComponent clones mean and cov into fresh arrays and
		// recomputes the (deterministic) Cholesky, so the copy is deep
		// and bit-identical.
		c, err := gaussian.NewComponent(src.Mean(), src.Cov(), 0)
		if err != nil {
			return nil, fmt.Errorf("query: snapshot component %d: %w", j, err)
		}
		comps[j] = c
		kd.Insert(j, c.Mean())
	}
	cp, err := gaussian.NewNormalizedMixture(mix.Weights(), comps)
	if err != nil {
		return nil, fmt.Errorf("query: snapshot: %w", err)
	}
	return &Snapshot{version: version, mass: mass, publishedAt: now, mix: cp, kd: kd}, nil
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
func (sn *Snapshot) K() int { return sn.mix.K() }

// Dim returns the data dimensionality.
func (sn *Snapshot) Dim() int { return sn.mix.Dim() }

// Weight returns component j's mixing weight.
func (sn *Snapshot) Weight(j int) float64 { return sn.mix.Weight(j) }

// Component returns component j (immutable, owned by the snapshot).
func (sn *Snapshot) Component(j int) *gaussian.Component { return sn.mix.Component(j) }

// Scratch holds the per-goroutine workspace the read ops need: one block
// of decoded records and their results for the mixture's batch kernels.
// One Scratch must not be used by two goroutines at once; acquire one per
// worker (or via the HTTP handler's pool) and reuse it across calls.
type Scratch struct {
	batch gaussian.BatchScratch
	one   [1]linalg.Vector  // a single-record call's view of its caller's x
	xs    []linalg.Vector   // gaussian.BatchBlock rows over flat
	flat  []float64         // backing of xs
	raw   []byte            // one block of CLUQ payload
	comp  []int             // per-record argmax component
	post  []float64         // per-record log posterior
	dens  []float64         // per-record log density
	nbrs  []kdtree.Neighbor // TopK result, at most K long
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards, so steady-state queries do not allocate.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes the block buffers for records of dim coordinates.
func (s *Scratch) ensure(dim int) {
	const n = gaussian.BatchBlock
	if len(s.flat) == n*dim {
		return
	}
	s.flat = make([]float64, n*dim)
	s.raw = make([]byte, n*dim*8)
	if s.xs == nil {
		s.xs = make([]linalg.Vector, n)
		s.comp = make([]int, n)
		s.post = make([]float64, n)
		s.dens = make([]float64, n)
	}
	for p := range s.xs {
		s.xs[p] = s.flat[p*dim : (p+1)*dim : (p+1)*dim]
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

// Classify assigns x to the highest-posterior component (ties to the
// lowest index): a one-record call of gaussian.Mixture.ClassifyBatch, so
// it is bit-identical to the batch endpoint. Zero allocations.
func (sn *Snapshot) Classify(x linalg.Vector, s *Scratch) Classification {
	s.ensure(sn.Dim())
	s.one[0] = x
	sn.mix.ClassifyBatch(s.one[:], s.comp[:1], s.post[:1], s.dens[:1], &s.batch)
	s.one[0] = nil
	return Classification{Component: s.comp[0], LogPosterior: s.post[0], LogDensity: s.dens[0]}
}

// LogDensity returns log p(x) under the snapshot mixture: a one-record
// call of gaussian.Mixture.ScoreBatch, bit-identical to Mixture.LogPDF.
// Zero allocations.
func (sn *Snapshot) LogDensity(x linalg.Vector, s *Scratch) float64 {
	s.ensure(sn.Dim())
	s.one[0] = x
	sn.mix.ScoreBatch(s.one[:], s.dens[:1], &s.batch)
	s.one[0] = nil
	return s.dens[0]
}

// Neighbor is a top-k result: ID is the component index, DistSq the
// squared Euclidean distance from the query point to the component mean.
type Neighbor = kdtree.Neighbor

// TopK returns the k components whose means are nearest to x in Euclidean
// distance, closest first (Neighbor.ID is the component index). k larger
// than K() is clamped before anything is sized, so the Scratch never grows
// past K entries whatever k a caller asks for. The returned slice aliases
// the Scratch and is valid until the next TopK call on the same Scratch.
// Zero allocations once the Scratch buffer has grown to min(k, K).
func (sn *Snapshot) TopK(x linalg.Vector, k int, s *Scratch) []kdtree.Neighbor {
	k = min(k, sn.K())
	if cap(s.nbrs) < k {
		s.nbrs = make([]kdtree.Neighbor, 0, k)
	}
	s.nbrs = sn.kd.NearestKInto(x, k, s.nbrs[:0])
	return s.nbrs
}
