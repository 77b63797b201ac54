package dst

import "cludistream/internal/tree"

// Shrink greedily minimizes a failing scenario while preserving the
// violation: it repeatedly tries folding an aggregator into its parent,
// dropping whole sites, truncating drift programs, and removing
// fault-schedule elements (site crashes, outage windows, aggregator
// crashes, the drop and duplicate probabilities, the sliding window),
// keeping each simplification that still fails. Because site streams are
// keyed by explicit per-site StreamSeeds, removing one site leaves every
// other stream bit-identical, so the shrink explores a lattice of strictly
// simpler scenarios.
//
// It returns the minimized scenario — still failing under opts — together
// with the number of candidate runs it took. The input scenario must fail;
// if it does not, it is returned unchanged with runs == 1.
func Shrink(sc Scenario, opts Options) (Scenario, int) {
	runs := 0
	fails := func(s Scenario) bool {
		if err := s.Validate(); err != nil {
			return false
		}
		runs++
		r, err := Run(s, opts)
		return err == nil && r.Violation != nil
	}
	if !fails(sc) {
		return sc, runs
	}
	for improved := true; improved; {
		improved = false
		for _, cand := range candidates(sc) {
			if fails(cand) {
				sc = cand
				improved = true
				break
			}
		}
	}
	return sc, runs
}

// candidates enumerates one-step simplifications, cheapest-to-verify
// first: fewer nodes and sites, shorter drift programs, then a smaller
// fault schedule. Candidates may be invalid (a site dropped from an
// aggregator's last slot); Shrink skips those without running them.
func candidates(sc Scenario) []Scenario {
	var out []Scenario

	// Fold one aggregator into its parent.
	for n := 1; n < sc.Topology.NumNodes(); n++ {
		out = append(out, foldAggregator(sc, n))
	}
	// Drop one site entirely.
	if len(sc.Sites) > 1 {
		for i := range sc.Sites {
			c := clone(sc)
			c.Sites = append(c.Sites[:i], c.Sites[i+1:]...)
			c.Topology.Leaves = append(c.Topology.Leaves[:i], c.Topology.Leaves[i+1:]...)
			out = append(out, c)
		}
	}
	// Truncate a drift program to its first half (clamping the crash
	// point back inside the shorter stream).
	for i, s := range sc.Sites {
		if len(s.Regimes) > 1 {
			c := clone(sc)
			c.Sites[i].Regimes = c.Sites[i].Regimes[:(len(s.Regimes)+1)/2]
			c.Sites[i].TailRecords = 0
			if max := c.Sites[i].totalRecords(c.ChunkSize) - 1; c.Sites[i].CrashAfter > max {
				c.Sites[i].CrashAfter = max
			}
			out = append(out, c)
		}
	}
	// Remove one site crash.
	for i, s := range sc.Sites {
		if s.CrashAfter > 0 {
			c := clone(sc)
			c.Sites[i].CrashAfter = 0
			out = append(out, c)
		}
	}
	// Remove one outage window, then one aggregator crash.
	for i := range sc.Outages {
		c := clone(sc)
		c.Outages = append(c.Outages[:i], c.Outages[i+1:]...)
		out = append(out, c)
	}
	for i := range sc.Crashes {
		c := clone(sc)
		c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...)
		out = append(out, c)
	}
	// Zero the probabilistic faults.
	if sc.DropProb > 0 {
		c := clone(sc)
		c.DropProb = 0
		out = append(out, c)
	}
	if sc.DupProb > 0 {
		c := clone(sc)
		c.DupProb = 0
		out = append(out, c)
	}
	// Turn off the sliding window.
	if sc.Sliding > 0 {
		c := clone(sc)
		c.Sliding = 0
		out = append(out, c)
	}
	return out
}

// foldAggregator removes internal node n: its children attach to its
// parent over their own links, its outages and crashes go with it, and
// every later node index shifts down by one.
func foldAggregator(sc Scenario, n int) Scenario {
	c := clone(sc)
	parent := c.Topology.Aggs[n-1].Parent
	renumber := func(m int) int {
		switch {
		case m == n:
			return parent
		case m > n:
			return m - 1
		}
		return m
	}
	c.Topology.Aggs = append(c.Topology.Aggs[:n-1], c.Topology.Aggs[n:]...)
	for i := range c.Topology.Aggs {
		c.Topology.Aggs[i].Parent = renumber(c.Topology.Aggs[i].Parent)
	}
	for i := range c.Topology.Leaves {
		c.Topology.Leaves[i].Parent = renumber(c.Topology.Leaves[i].Parent)
	}
	c.Outages = c.Outages[:0]
	for _, o := range sc.Outages {
		if o.Node != n {
			o.Node = renumber(o.Node)
			c.Outages = append(c.Outages, o)
		}
	}
	c.Crashes = c.Crashes[:0]
	for _, k := range sc.Crashes {
		if k.Node != n {
			k.Node = renumber(k.Node)
			c.Crashes = append(c.Crashes, k)
		}
	}
	return c
}

// clone deep-copies the scenario's slices so candidates never alias.
func clone(sc Scenario) Scenario {
	c := sc
	c.Topology.Aggs = append([]tree.AggSpec(nil), sc.Topology.Aggs...)
	c.Topology.Leaves = append([]tree.LeafSpec(nil), sc.Topology.Leaves...)
	c.Outages = append([]Outage(nil), sc.Outages...)
	c.Crashes = append([]tree.CrashSpec(nil), sc.Crashes...)
	c.Sites = append([]SiteScript(nil), sc.Sites...)
	for i := range c.Sites {
		c.Sites[i].Regimes = append([]Regime(nil), sc.Sites[i].Regimes...)
	}
	return c
}
