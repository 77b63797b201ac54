package coordinator

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cludistream/internal/gaussian"
)

// refreshGroup recomputes a group's representative and keeps the index in
// sync with the new mean. Every membership or weight mutation funnels
// through here, so it is also the single point where groups are marked
// dirty for the incremental stability sweep.
func (c *Coordinator) refreshGroup(g *Group) { c.refreshGroupFrom(g, nil) }

// refreshGroupFrom is refreshGroup with the group's fold-phase fits: its
// fold records every merge through recordMerge, which takes a miss from pre
// instead of fitting it.
func (c *Coordinator) refreshGroupFrom(g *Group, pre prefits) {
	g.recomputeRep(func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
		return c.recordMerge(pre, wi, ci, wj, cj)
	})
	c.dirty[g.id] = struct{}{}
	if g.Size() == 0 {
		c.hasEmpty = true
	}
	if g.rep == nil {
		c.index.Remove(g.id)
		return
	}
	c.index.Insert(g.id, g.rep.Mean())
}

// refreshGroups is refreshGroup over gs, distinct groups, in order — with the
// re-fits run concurrently. Algorithm 2 re-fits the father of every group an
// update touches, and each re-fit is an independent simplex fit. The batch
// works in two phases, the shape of em.Fit's sharded pass:
//
//   - The fold phase runs the fold of each group whose fold misses the memo
//     on min(GOMAXPROCS, such groups) goroutines, started and joined here.
//     A fold only reads the memo (memoLookup) and fits what it misses with
//     gaussian.FitMerge, which is pure and seeds its own RNG.
//   - The record phase then refreshes every group serially, in order,
//     through recordMerge — the serial loop itself — which takes each miss's
//     fit from the fold phase instead of fitting it again.
//
// The record phase is the serial loop: each lookup sees the memo the serial
// loop would see, and a miss takes a fold-phase fit, which is FitMerge of the
// same input. So the tree and the memo — its entries, coord.merge_fits and
// coord.merge_memo_hits — are the serial loop's whatever the fold phase did.
// The fold phase predicts the record phase's misses exactly, so no fit is
// wasted or fitted twice, when the memo's current generation has room for
// every merge the batch can record, Σ(|g|−1): then nothing rotates
// mid-batch, and no fold hits a merge another fold of the batch records,
// because a key's right input is a leaf of its own group. (Leaves that share
// one *Component, as a test palette reused across models makes them, can
// break the second rule; the record phase then fits the miss itself.)
// Without that room, with fewer than two groups to fit, on one CPU, or under
// an oracle (fromScratch, sweepAll) there is no fold phase.
func (c *Coordinator) refreshGroups(gs []*Group) {
	pre := c.prefold(gs)
	for i, g := range gs {
		var p prefits
		if pre != nil {
			p = pre[i]
		}
		c.refreshGroupFrom(g, p)
	}
}

// prefold is refreshGroups' fold phase: the fits of each group of gs, nil
// when the batch folds serially.
func (c *Coordinator) prefold(gs []*Group) []prefits {
	procs := runtime.GOMAXPROCS(0)
	if c.fromScratch || c.sweepAll || procs == 1 || len(gs) < 2 {
		return nil
	}
	room := c.memoLimit - len(c.memoCur)
	for _, g := range gs {
		room -= max(g.Size()-1, 0)
	}
	if room < 0 {
		return nil
	}
	var fit []int // indices into gs of the groups whose fold misses the memo
	for i, g := range gs {
		if c.missesMemo(g) {
			fit = append(fit, i)
		}
	}
	if len(fit) < 2 {
		return nil
	}
	return c.foldConcurrently(gs, fit, min(procs, len(fit)))
}

// foldConcurrently runs foldFits on the groups gs[fit[n]], pulled off an
// atomic counter by the given number of goroutines, and returns their fits
// at their indices in gs once every goroutine has returned.
func (c *Coordinator) foldConcurrently(gs []*Group, fit []int, workers int) []prefits {
	pre := make([]prefits, len(gs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for ; workers > 0; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(fit) {
					return
				}
				i := fit[n]
				pre[i] = c.foldFits(gs[i])
			}
		}()
	}
	wg.Wait()
	for _, p := range pre {
		c.prefitted += len(p)
	}
	return pre
}

// missesMemo reports whether g's fold fits at least one merge: it follows
// the fold through the memo up to its first miss.
func (c *Coordinator) missesMemo(g *Group) bool {
	missed := false
	g.fold(func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
		if !missed {
			if v, _, ok := c.memoLookup(newMergeKey(wi, ci, wj, cj)); ok {
				return v.w, v.rep
			}
			missed = true
		}
		return wi, ci
	})
	return missed
}

// foldFits runs g's fold against the memo without writing to it and returns
// the merges it had to fit. A merge the fold repeats is fitted once, as the
// record phase will find the first in the memo.
func (c *Coordinator) foldFits(g *Group) prefits {
	var pre prefits
	g.fold(func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
		k := newMergeKey(wi, ci, wj, cj)
		v, _, ok := c.memoLookup(k)
		if !ok {
			v, ok = pre.find(k)
		}
		if !ok {
			v.w, v.rep = gaussian.FitMerge(wi, ci, wj, cj, c.cfg.Merge)
			pre = append(pre, prefit{k, v})
		}
		return v.w, v.rep
	})
	return pre
}
