package experiments

import (
	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/tree"
)

// AblationSnapshots reproduces the Section-7 argument against static
// snapshotting: "previous efforts such as CluStream often adopt a static
// strategy... when a pyramid time arrives, a snapshot of the current
// cluster model is stored. This strategy may introduce redundant records,
// while missing some important events."
//
// A site consumes a stream whose regimes have very uneven durations. Two
// historians answer "which model governed chunk c?":
//
//   - event-driven: CluDistream's event list (a new entry only when the
//     distribution actually changed);
//   - static: a snapshot of the current model taken every S chunks,
//     queries answered by the latest snapshot at or before c.
//
// Both are scored on every past chunk: the answer is correct when the
// returned model assigns the chunk's own records an average log-likelihood
// within tolerance of the best model's. The table reports storage entries
// and accuracy for snapshot intervals S ∈ {1, 2, 4}.
func AblationSnapshots(p Params) (*Table, error) {
	m := chunkSizeFor(p)
	// Regimes with deliberately uneven durations (in chunks): the short
	// ones are the "important events" static snapshots miss.
	regimeOfChunk := func(c int) int { // 1-based chunk → regime index
		switch {
		case c <= 5:
			return 0
		case c == 6: // a one-chunk burst
			return 1
		case c <= 12:
			return 2
		case c <= 14:
			return 3
		default:
			return 2 // return to regime 2
		}
	}
	mkRegime := func(idx int) *gaussian.Mixture {
		center := float64(idx*40) - 60
		comps := make([]*gaussian.Component, p.K)
		ws := make([]float64, p.K)
		for j := range comps {
			mean := linalg.NewVector(p.Dim)
			for i := range mean {
				mean[i] = center + float64(j)*2
			}
			comps[j] = gaussian.Spherical(mean, 1)
			ws[j] = 1
		}
		return gaussian.MustMixture(ws, comps)
	}

	const totalChunks = 18
	st, err := site.New(p.siteConfig(1))
	if err != nil {
		return nil, err
	}

	// Feed chunk by chunk, remembering each chunk's records and taking
	// static snapshots.
	type snapshot struct {
		chunk int
		mix   *gaussian.Mixture
	}
	snapshotsAt := map[int][]snapshot{1: nil, 2: nil, 4: nil}
	chunkData := make([][]linalg.Vector, totalChunks+1)
	src := newRegimeSampler(p.Seed, mkRegime)
	for c := 1; c <= totalChunks; c++ {
		data := src.chunk(regimeOfChunk(c), m)
		chunkData[c] = data
		if _, err := st.ProcessChunk(data); err != nil {
			return nil, err
		}
		for s := range snapshotsAt {
			if c%s == 0 {
				if cur := st.Current(); cur != nil {
					snapshotsAt[s] = append(snapshotsAt[s], snapshot{chunk: c, mix: cur.Mixture})
				}
			}
		}
	}

	// Ground truth per chunk: the regime mixture itself. An answer is
	// correct if it scores the chunk within tol of the true regime model.
	const tol = 2.0
	correct := func(answer *gaussian.Mixture, c int) bool {
		if answer == nil {
			return false
		}
		truth := mkRegime(regimeOfChunk(c))
		return answer.AvgLogLikelihood(chunkData[c]) >= truth.AvgLogLikelihood(chunkData[c])-tol
	}

	// Event-driven historian.
	h := st.History()
	models := map[int]*gaussian.Mixture{}
	for _, mm := range h.Models {
		models[mm.ID] = mm.Mixture
	}
	eventAnswer := func(c int) *gaussian.Mixture {
		if id, ok := h.ModelAt(c); ok {
			return models[id]
		}
		return nil
	}
	var eventCorrect int
	for c := 1; c <= totalChunks; c++ {
		if correct(eventAnswer(c), c) {
			eventCorrect++
		}
	}

	t := &Table{
		Title:   "Ablation: event-driven history vs static snapshots (§7)",
		Columns: []string{"interval S (0=event-driven)", "stored entries", "accuracy"},
	}
	t.AddRow(0, float64(h.Events.Len()+1), float64(eventCorrect)/totalChunks)
	for _, s := range []int{1, 2, 4} {
		snaps := snapshotsAt[s]
		staticAnswer := func(c int) *gaussian.Mixture {
			var best *gaussian.Mixture
			for _, sn := range snaps {
				if sn.chunk <= c {
					best = sn.mix
				}
			}
			// Chunks before the first snapshot fall back to it.
			if best == nil && len(snaps) > 0 {
				best = snaps[0].mix
			}
			return best
		}
		var ok int
		for c := 1; c <= totalChunks; c++ {
			if correct(staticAnswer(c), c) {
				ok++
			}
		}
		t.AddRow(float64(s), float64(len(snaps)), float64(ok)/totalChunks)
	}
	t.AddNote("§7: the event-driven list stores one entry per actual change and answers every window; sparse static snapshots miss the one-chunk burst, dense ones store redundantly")
	return t, nil
}

// AblationHierarchy compares the flat star topology (every site talks to
// the coordinator) with the §7 multi-layer tree (leaves under aggregators
// under a root) on the load reaching the *root*: the tree's internal nodes
// absorb leaf churn and upload only merged-model changes. Each leaf sees
// its own regime sequence so lower levels churn while the global picture
// moves slowly.
func AblationHierarchy(p Params) (*Table, error) {
	const branching = 2
	leaves := branching * branching // 2 aggregators × 2 leaves
	m := chunkSizeFor(p)
	// Each leaf must cycle its 4 regimes (8 chunks per cycle) several times
	// to reach steady state; the profile's Updates alone may be too short.
	perLeaf := p.Updates / leaves
	if min := 24 * m; perLeaf < min {
		perLeaf = min
	}

	// Every leaf alternates among a SHARED pool of regimes with its own
	// phase: lower levels keep switching models, but once the aggregators
	// have absorbed all four regimes the global picture stops changing —
	// the regime where the tree's event-driven propagation pays off.
	pool := make([]*gaussian.Mixture, 4)
	for r := range pool {
		center := float64(r*30) - 45
		comps := make([]*gaussian.Component, p.K)
		ws := make([]float64, p.K)
		for j := range comps {
			mean := linalg.NewVector(p.Dim)
			for i := range mean {
				mean[i] = center + float64(j)*2
			}
			comps[j] = gaussian.Spherical(mean, 1)
			ws[j] = 1
		}
		pool[r] = gaussian.MustMixture(ws, comps)
	}
	mkGen := func(i int) stream.Generator {
		// Rotate the pool per leaf so phases differ.
		rot := append(append([]*gaussian.Mixture{}, pool[i%4:]...), pool[:i%4]...)
		g, err := stream.NewAlternating(rot, 2*m, p.Seed+int64(i))
		if err != nil {
			panic(err)
		}
		return g
	}

	// Compare the final third (steady state) against the rest (learning).
	cut := perLeaf * 2 / 3

	// Flat star: r leaves directly under one coordinator; root-link bytes =
	// everything every site sends.
	flat, err := newSystem(p, p.Dim, leaves)
	if err != nil {
		return nil, err
	}
	flatGens := make([]stream.Generator, leaves)
	for i := range flatGens {
		flatGens[i] = mkGen(i)
	}
	flatCut := 0
	for rec := 0; rec < perLeaf; rec++ {
		for i, g := range flatGens {
			if err := flat.Feed(i, g.Next()); err != nil {
				return nil, err
			}
		}
		if rec == cut {
			flatCut = flat.TotalBytes()
		}
	}
	if err := flat.Drain(); err != nil {
		return nil, err
	}

	// Tree: same leaf streams, one aggregator per pair of leaves, on the
	// flat star's perfect links; root-link bytes = the layer into the root.
	// No Drain: its exact final sync flushes drift the aggregators'
	// tolerances suppressed — end-of-run bookkeeping, not steady state.
	topo, err := tree.Spec{Leaves: leaves, AggLayers: 1, FanOut: branching, Link: tree.LinkSpec{Latency: 0.05}}.Build()
	if err != nil {
		return nil, err
	}
	dep, err := tree.NewDeployment(tree.Config{
		Topology: topo,
		Site:     p.siteConfig(0),
		Coord:    coordinator.Config{Dim: p.Dim},
		Seed:     p.Seed,
	})
	if err != nil {
		return nil, err
	}
	treeGens := make([]stream.Generator, leaves)
	for i := range treeGens {
		treeGens[i] = mkGen(i)
	}
	treeCut := 0
	for rec := 0; rec < perLeaf; rec++ {
		for i, g := range treeGens {
			if err := dep.Feed(i, g.Next()); err != nil {
				return nil, err
			}
		}
		if rec == cut {
			treeCut = dep.LayerBytes()[0]
		}
	}

	t := &Table{
		Title:   "Ablation: flat star vs multi-layer tree (§7) — bytes arriving at the root",
		Columns: []string{"topology (0=flat,1=tree)", "root bytes learning", "root bytes steady state"},
	}
	t.AddRow(0, float64(flatCut), float64(flat.TotalBytes()-flatCut))
	t.AddRow(1, float64(treeCut), float64(dep.LayerBytes()[0]-treeCut))
	t.AddNote("§7: once the aggregators have absorbed the shared regimes their merged models stop changing materially, so the tree's root link goes quiet while the flat root keeps receiving per-leaf weight updates")
	return t, nil
}

// regimeSampler deterministically samples chunks from regime mixtures.
type regimeSampler struct {
	seed int64
	mk   func(int) *gaussian.Mixture
	rngs map[int]*stream.Alternating
}

func newRegimeSampler(seed int64, mk func(int) *gaussian.Mixture) *regimeSampler {
	return &regimeSampler{seed: seed, mk: mk, rngs: map[int]*stream.Alternating{}}
}

func (r *regimeSampler) chunk(regime, m int) []linalg.Vector {
	g, ok := r.rngs[regime]
	if !ok {
		g, _ = stream.NewAlternating([]*gaussian.Mixture{r.mk(regime)}, 1, r.seed+int64(regime))
		r.rngs[regime] = g
	}
	return stream.Take(g, m)
}
