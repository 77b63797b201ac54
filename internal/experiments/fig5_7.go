package experiments

import (
	"math/rand"

	"cludistream/internal/linalg"
	"cludistream/internal/sem"
	"cludistream/internal/site"
	"cludistream/internal/stream"
)

// Fig5 reproduces Figure 5: clustering quality in a horizon (sliding
// window) at successive time points — CluDistream's window mixture vs the
// single SEM model, both evaluated by average log-likelihood on the most
// recent H records.
func Fig5(p Params) (*Table, error) {
	h := p.RegimeLen
	gen := p.synthetic(0)

	st, err := site.New(p.siteConfig(1))
	if err != nil {
		return nil, err
	}
	sm, err := sem.New(p.semConfig())
	if err != nil {
		return nil, err
	}
	m := st.ChunkSize()
	windowChunks := (h + m - 1) / m
	if windowChunks < 1 {
		windowChunks = 1
	}

	t := &Table{
		Title:   "Figure 5: cluster quality in a horizon over time (synthetic)",
		Columns: []string{"updates", "CluDistream avgLL", "SEM avgLL"},
	}
	checkpoints := p.checkpointsFor(p.Updates)
	next := 0
	recent := make([]linalg.Vector, 0, h)
	for rec := 1; rec <= p.Updates; rec++ {
		x := gen.Next()
		if _, err := st.Observe(x); err != nil {
			return nil, err
		}
		if err := sm.Observe(x); err != nil {
			return nil, err
		}
		recent = append(recent, x)
		if len(recent) > h {
			recent = recent[1:]
		}
		if next < len(checkpoints) && rec == checkpoints[next] {
			next++
			cw := st.History().Mixture(st.ChunksSeen()-windowChunks+1, st.ChunksSeen())
			if cw == nil || sm.Model() == nil {
				continue // cold start
			}
			t.AddRow(float64(rec), quality(cw, recent), quality(sm.Model(), recent))
		}
	}
	t.AddNote("paper: CluDistream clearly outperforms SEM — SEM fits chunks from different distributions into one model")
	t.AddNote("measured: mean gap = %.3f", meanGap(t, 1, 2))
	return t, nil
}

// Fig6 reproduces Figure 6: clustering quality in a landmark window —
// CluDistream vs SEM vs sampling-based EM, evaluated on a uniform reservoir
// of everything seen so far.
func Fig6(p Params) (*Table, error) {
	gen := p.synthetic(0)
	st, err := site.New(p.siteConfig(1))
	if err != nil {
		return nil, err
	}
	sm, err := sem.New(p.semConfig())
	if err != nil {
		return nil, err
	}
	emCfg := p.semConfig().EM
	emCfg.K = p.K
	sampler, err := sem.NewSamplingEM(p.SEMBuffer/2, emCfg, p.Seed+5)
	if err != nil {
		return nil, err
	}

	// Evaluation reservoir: a uniform sample of the whole landmark window.
	evalRng := rand.New(rand.NewSource(p.Seed + 99))
	const evalCap = 2000
	var eval []linalg.Vector
	seen := 0

	t := &Table{
		Title:   "Figure 6: cluster quality in a landmark window (synthetic)",
		Columns: []string{"updates", "CluDistream avgLL", "SEM avgLL", "sampling-EM avgLL"},
	}
	checkpoints := p.checkpointsFor(p.Updates)
	next := 0
	for rec := 1; rec <= p.Updates; rec++ {
		x := gen.Next()
		if _, err := st.Observe(x); err != nil {
			return nil, err
		}
		if err := sm.Observe(x); err != nil {
			return nil, err
		}
		sampler.Observe(x)
		seen++
		if len(eval) < evalCap {
			eval = append(eval, x)
		} else if j := evalRng.Intn(seen); j < evalCap {
			eval[j] = x
		}
		if next < len(checkpoints) && rec == checkpoints[next] {
			next++
			lm := st.History().Landmark()
			if lm == nil || sm.Model() == nil || sampler.Model() == nil {
				continue // cold start
			}
			t.AddRow(float64(rec),
				quality(lm, eval),
				quality(sm.Model(), eval),
				quality(sampler.Model(), eval))
		}
	}
	t.AddNote("paper: CluDistream highest, slightly above SEM, well above sampling-based EM")
	t.AddNote("measured: mean gap over SEM = %.3f, over sampling = %.3f", meanGap(t, 1, 2), meanGap(t, 1, 3))
	return t, nil
}

// Fig7 reproduces Figure 7: quality at the coordinator over r distributed
// streams — CluDistream's merged global mixture vs a *centralized* SEM fed
// every update, evaluated on the pooled recent horizon. useNFD selects
// panel (a) (NFD-like streams, small horizon) vs (b) (synthetic, larger
// horizon).
func Fig7(p Params, useNFD bool) (*Table, error) {
	if useNFD {
		p = p.nfdParams()
	}
	perSite := p.Updates / p.Sites
	gens := make([]stream.Generator, p.Sites)
	dim := p.Dim
	for i := range gens {
		q := p
		q.Seed = p.Seed + int64(i)*31
		if useNFD {
			gens[i] = q.nfd()
		} else {
			gens[i] = q.synthetic(0)
		}
	}

	sys, err := newSystem(p, dim, len(gens))
	if err != nil {
		return nil, err
	}
	semCfg := p.semConfig()
	semCfg.Dim = dim
	central, err := sem.New(semCfg)
	if err != nil {
		return nil, err
	}

	h := p.RegimeLen
	recent := make([]linalg.Vector, 0, h)
	name := "synthetic"
	if useNFD {
		name = "NFD"
	}
	t := &Table{
		Title:   "Figure 7 (" + name + "): cluster quality at the coordinator",
		Columns: []string{"updates/site", "CluDistream avgLL", "centralized SEM avgLL"},
	}
	checkpoints := p.checkpointsFor(perSite)
	next := 0
	for rec := 1; rec <= perSite; rec++ {
		for i, g := range gens {
			x := g.Next()
			if err := sys.Feed(i, x); err != nil {
				return nil, err
			}
			if err := central.Observe(x); err != nil {
				return nil, err
			}
			recent = append(recent, x)
			if len(recent) > h {
				recent = recent[1:]
			}
		}
		if next < len(checkpoints) && rec == checkpoints[next] {
			next++
			if err := sys.Drain(); err != nil {
				return nil, err
			}
			gm := sys.GlobalMixture()
			cm := central.Model()
			if gm == nil || cm == nil {
				continue // cold start: neither side has a model to compare yet
			}
			t.AddRow(float64(rec), quality(gm, recent), quality(cm, recent))
		}
	}
	t.AddNote("paper: CluDistream beats even a centralized SEM on recent-horizon quality")
	t.AddNote("measured: mean gap = %.3f", meanGap(t, 1, 2))
	return t, nil
}

// meanGap returns mean(col a − col b) over a table's rows.
func meanGap(t *Table, a, b int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range t.Rows {
		s += r[a] - r[b]
	}
	return s / float64(len(t.Rows))
}
