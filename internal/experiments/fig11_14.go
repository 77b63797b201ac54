package experiments

import (
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/sem"
	"cludistream/internal/site"
	"cludistream/internal/stream"
)

// sweepQualityAndTime runs a CluDistream site over a synthetic stream with
// the given parameters and returns (avg recent-horizon quality at the
// checkpoints' mean, total seconds). The SEM comparator runs on an
// identical stream when wantSEM is set.
func sweepQualityAndTime(p Params, wantSEM bool) (cludQ, semQ, cludSec float64, err error) {
	gen := p.synthetic(0)
	st, err := site.New(p.siteConfig(1))
	if err != nil {
		return 0, 0, 0, err
	}
	var sm *sem.SEM
	var genSEM stream.Generator
	if wantSEM {
		if sm, err = newSEM(p); err != nil {
			return 0, 0, 0, err
		}
		genSEM = p.synthetic(0)
	}
	h := p.RegimeLen
	m := st.ChunkSize()
	windowChunks := (h + m - 1) / m
	recent := make([]linalg.Vector, 0, h)

	_, dur, err := func() (*site.Site, float64, error) {
		start := nowSeconds()
		checkpoints := p.checkpointsFor(p.Updates)
		next := 0
		var qSum float64
		var qN int
		var sSum float64
		for rec := 1; rec <= p.Updates; rec++ {
			x := gen.Next()
			if _, err := st.Observe(x); err != nil {
				return nil, 0, err
			}
			recent = append(recent, x)
			if len(recent) > h {
				recent = recent[1:]
			}
			if sm != nil {
				if err := sm.Observe(genSEM.Next()); err != nil {
					return nil, 0, err
				}
			}
			if next < len(checkpoints) && rec == checkpoints[next] {
				next++
				cw := st.History().Mixture(st.ChunksSeen()-windowChunks+1, st.ChunksSeen())
				qSum += quality(cw, recent)
				if sm != nil {
					sSum += quality(sm.Model(), recent)
				}
				qN++
			}
		}
		elapsed := nowSeconds() - start
		if qN > 0 {
			cludQ = qSum / float64(qN)
			semQ = sSum / float64(qN)
		}
		return st, elapsed, nil
	}()
	if err != nil {
		return 0, 0, 0, err
	}
	return cludQ, semQ, dur, nil
}

// Fig11 reproduces Figure 11: clustering quality (a) and processing time
// (b) as ε varies from 0.01 to 0.1.
func Fig11(p Params) (*Table, error) {
	t := &Table{
		Title:   "Figure 11: quality and time vs epsilon",
		Columns: []string{"epsilon", "CluDistream avgLL", "SEM avgLL", "CluDistream sec"},
	}
	for _, eps := range []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.1} {
		q := p
		// The sweep axis is the paper's nominal ε; scale both the chunk-size
		// driver and the calibrated fit threshold by the same factor so the
		// profile's calibration is preserved across the sweep.
		factor := eps / 0.02
		q.Epsilon = p.Epsilon * factor
		q.FitEps = p.FitEps * factor
		cq, sq, sec, err := sweepQualityAndTime(q, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(eps, cq, sq, sec)
	}
	t.AddNote("paper: quality degrades as ε grows but stays above SEM (≥ −1.01); time is U-shaped with a minimum near ε=0.04")
	return t, nil
}

// Fig12 reproduces Figure 12: quality (a) and time (b) as δ varies from
// 0.01 to 0.1.
func Fig12(p Params) (*Table, error) {
	t := &Table{
		Title:   "Figure 12: quality and time vs delta",
		Columns: []string{"delta", "CluDistream avgLL", "SEM avgLL", "CluDistream sec"},
	}
	for _, delta := range []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.1} {
		q := p
		q.Delta = delta
		cq, sq, sec, err := sweepQualityAndTime(q, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(delta, cq, sq, sec)
	}
	t.AddNote("paper: quality high for δ∈[0.01,0.04], deteriorates by δ=0.1 yet stays above SEM; time decreases as δ grows")
	return t, nil
}

// Fig13 reproduces Figure 13: processing time vs c_max on a stream that
// alternates between a fixed set of distributions — the scenario the
// multi-test strategy targets. The paper finds the minimum at c_max = 3–4.
func Fig13(p Params) (*Table, error) {
	// Build 4 alternating regimes so re-activating archived models pays
	// off for c_max ≥ 4 but wastes tests beyond that.
	mk := func(center float64) *gaussian.Mixture {
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
	regimes := []*gaussian.Mixture{mk(-30), mk(-10), mk(10), mk(30)}

	t := &Table{
		Title:   "Figure 13: processing time vs c_max (alternating distributions)",
		Columns: []string{"c_max", "sec", "EM runs", "tests"},
	}
	m := chunkSizeFor(p)
	for cmax := 1; cmax <= 7; cmax++ {
		gen, err := stream.NewAlternating(regimes, 2*m, p.Seed)
		if err != nil {
			return nil, err
		}
		cfg := p.siteConfig(1)
		cfg.CMax = cmax
		st, dur, err := runSite(cfg, gen, p.Updates)
		if err != nil {
			return nil, err
		}
		stats := st.Stats()
		t.AddRow(float64(cmax), dur.Seconds(), float64(stats.EMRuns), float64(stats.Tests))
	}
	t.AddNote("paper: minimum processing time at c_max=3 or 4; both smaller and larger c_max cost more")
	return t, nil
}

// Fig14 reproduces Figure 14: processing time vs P_d. Per the power-law
// discussion of Theorem 4, time grows slowly while P_d is small and
// dramatically as P_d approaches 1 (every chunk needs a fresh EM run).
func Fig14(p Params) (*Table, error) {
	t := &Table{
		Title:   "Figure 14: processing time vs P_d",
		Columns: []string{"P_d", "sec", "EM runs"},
	}
	for _, pd := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		q := p
		q.Pd = pd
		// Regime boundaries aligned with chunks make P_d's effect crisp.
		q.RegimeLen = chunkSizeFor(p)
		gen := q.synthetic(0)
		st, dur, err := runSite(q.siteConfig(1), gen, p.Updates)
		if err != nil {
			return nil, err
		}
		t.AddRow(pd, dur.Seconds(), float64(st.Stats().EMRuns))
	}
	t.AddNote("paper: slow growth for small P_d, dramatic increase as P_d→1")
	return t, nil
}
