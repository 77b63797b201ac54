package coordinator

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cludistream/internal/gaussian"
)

// refreshGroup recomputes a group's representative and keeps the index in
// sync with the new mean. Every membership or weight mutation funnels
// through here or refreshGroups, so it is also the single point where groups
// are marked dirty for the incremental stability sweep.
func (c *Coordinator) refreshGroup(g *Group) {
	c.foldGroup(g)
	c.settle(g)
}

// refreshGroups is refreshGroup over gs, distinct groups — with the re-fits
// run concurrently. Algorithm 2 re-fits the father of every group an update
// touches, and each re-fit is an independent simplex fit: a fold reads its
// group's members and writes only the group and its own memo, and
// gaussian.FitMerge is pure and seeds its own RNG. So the groups whose fold
// misses their memo are folded on min(GOMAXPROCS, such groups) goroutines,
// started and joined here; the rest — and all of them when fewer than two
// miss, on one CPU, or under an oracle (fromScratch, sweepAll) — on the
// calling goroutine. Each group's memo evolves the same whatever the
// schedule, so the tree, the memos and the counts settle collects serially
// in gs order are the serial loop's by construction.
func (c *Coordinator) refreshGroups(gs []*Group) {
	serial := c.fromScratch || c.sweepAll || runtime.GOMAXPROCS(0) == 1
	var fit []*Group
	for _, g := range gs {
		if serial || !g.misses() {
			c.foldGroup(g)
		} else {
			fit = append(fit, g)
		}
	}
	if len(fit) == 1 {
		c.foldGroup(fit[0])
	} else if len(fit) > 1 {
		c.foldConcurrently(fit)
	}
	for _, g := range gs {
		c.settle(g)
	}
}

// foldConcurrently folds the groups gs, pulled off an atomic counter by
// min(GOMAXPROCS, len(gs)) goroutines, and returns once every one has.
func (c *Coordinator) foldConcurrently(gs []*Group) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for workers := min(runtime.GOMAXPROCS(0), len(gs)); workers > 0; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(gs) {
					return
				}
				c.foldGroup(gs[n])
			}
		}()
	}
	wg.Wait()
	for _, g := range gs {
		c.concurrentFits += g.memo.fits
	}
}

// foldGroup rebuilds g's representative through g's memo, whose generations
// hold memoGeneration(|g|) merges (memoGen under the rollover tests); the
// from-scratch oracle fits every merge and remembers nothing.
func (c *Coordinator) foldGroup(g *Group) {
	if c.fromScratch {
		g.recomputeRep(func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
			return gaussian.FitMerge(wi, ci, wj, cj, c.cfg.Merge)
		})
		return
	}
	limit := c.memoGen
	if limit == 0 {
		limit = memoGeneration(g.Size())
	}
	g.memo.bound(limit)
	g.recomputeRep(func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
		return g.memo.merge(limit, c.cfg.Merge, wi, ci, wj, cj)
	})
}

// settle is the serial half of a refresh: it collects the fold's memo counts
// into the telemetry, marks g dirty, notes an emptied group (whose memo goes
// with it) and keeps the index on the new mean.
func (c *Coordinator) settle(g *Group) {
	if g.Size() == 0 {
		c.hasEmpty = true
		g.memo.bound(0)
	}
	m := &g.memo
	c.tele.mergeFits.Add(int64(m.fits))
	c.tele.memoHits.Add(int64(m.hits))
	c.memoEntries += m.grown
	c.tele.memoEntries.Set(float64(c.memoEntries))
	m.fits, m.hits, m.grown = 0, 0, 0
	c.dirty[g.id] = struct{}{}
	if g.rep == nil {
		c.index.Remove(g.id)
		return
	}
	c.index.Insert(g.id, g.rep.Mean())
}
