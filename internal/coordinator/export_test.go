package coordinator

import "cludistream/internal/gaussian"

// UseFromScratchFold makes c fold every representative with the
// unremembered gaussian.FitMerge, as every coordinator did before the memo:
// the oracle of the memo parity tests.
func (c *Coordinator) UseFromScratchFold() {
	c.merge = func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
		return gaussian.FitMerge(wi, ci, wj, cj, c.cfg.Merge)
	}
}

// SetMemoGeneration replaces the memo's generation size (memoGeneration) so
// a short test sequence can make it roll over.
func (c *Coordinator) SetMemoGeneration(n int) { c.memoLimit = n }
