package coordinator

import (
	"math"

	"cludistream/internal/gaussian"
)

// UseFromScratchFold makes c fold every representative with the
// unremembered gaussian.FitMerge, as every coordinator did before the memo:
// the oracle of the memo parity tests.
func (c *Coordinator) UseFromScratchFold() { c.fromScratch = true }

// SetMemoGeneration fixes every group memo's generation at n merges instead
// of memoGeneration(|g|), so a short test sequence makes the memos roll over.
func (c *Coordinator) SetMemoGeneration(n int) { c.memoGen = n }

// ConcurrentFits returns how many merges refreshGroups has fitted off the
// calling goroutine, so a parity test can show that the concurrent path ran.
func (c *Coordinator) ConcurrentFits() int { return c.concurrentFits }

// UseFullSweep makes every stability sweep visit every group, not only the
// dirty ones: the oracle of the dirty-tracking parity tests.
func (c *Coordinator) UseFullSweep() { c.sweepAll = true }

// SetIndexMinGroups replaces indexMinGroups so a small test tree already
// places through the k-d index.
func (c *Coordinator) SetIndexMinGroups(n int) { c.indexMin = n }

// UseExhaustivePlacement makes placement scan every group, never the k-d
// index: the oracle of the indexed-placement parity tests.
func (c *Coordinator) UseExhaustivePlacement() { c.indexMin = math.MaxInt }

// AuditStability verifies that no clean group holds a splittable member and
// returns how many it found. A violation means a mutation escaped the dirty
// tracking; the audit never repairs it, so the tests can assert the count
// stays zero.
func (c *Coordinator) AuditStability() int {
	violations := 0
	for _, g := range c.groups {
		if g.Size() <= 1 {
			continue
		}
		if _, pending := c.dirty[g.id]; pending {
			continue // legitimately awaiting the next sweep
		}
		for _, m := range g.members {
			if gaussian.MSplit(m.comp, g.rep) > 1/m.mremergeAtJoin {
				violations++
			}
		}
	}
	return violations
}
