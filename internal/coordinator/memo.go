package coordinator

import (
	"math"

	"cludistream/internal/gaussian"
)

// pairMerge fits the father of two weighted components; it has
// gaussian.FitMerge's shape with the coordinator's MergeOptions bound.
type pairMerge func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component)

// mergeKey is the whole input of one pair merge. FitMerge is a pure function
// of the two weights, the two components and the MergeOptions; the options
// are fixed per coordinator and a Component is immutable once built, so the
// pointers stand for the components' contents and the weights' bit patterns
// for the weights. The memo holds the pointers, so an address cannot be
// reused for a different component while its key is remembered.
type mergeKey struct {
	ci, cj *gaussian.Component
	wi, wj uint64
}

func newMergeKey(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) mergeKey {
	return mergeKey{ci, cj, math.Float64bits(wi), math.Float64bits(wj)}
}

type mergeVal struct {
	w   float64
	rep *gaussian.Component
}

// prefits are one group's fold-phase fits (see refreshGroups): the merges
// its fold missed in the memo, keyed by input, for the record phase to
// record instead of fitting them again.
type prefits []prefit

type prefit struct {
	k mergeKey
	v mergeVal
}

func (p prefits) find(k mergeKey) (mergeVal, bool) {
	for _, f := range p {
		if f.k == k {
			return f.v, true
		}
	}
	return mergeVal{}, false
}

// memoGeneration bounds the memo: it keeps at most two generations of this
// many merges (see recordMerge), each pinning its two inputs and its output.
const memoGeneration = 256

// memoLookup is the memo's read-only half: the remembered merge of k, and
// whether it sits in the current generation. It writes nothing, so the fold
// phase of refreshGroups calls it from several goroutines at once.
func (c *Coordinator) memoLookup(k mergeKey) (v mergeVal, inCur, ok bool) {
	if v, ok = c.memoCur[k]; ok {
		return v, true, true
	}
	v, ok = c.memoOld[k]
	return v, false, ok
}

// recordMerge is the coordinator's one pair merge: gaussian.FitMerge,
// remembered by exact input. Sliding windows re-fit the same pair over and
// over — a model's counter oscillates +M, −M once its window is full, and a
// founder split by its first sibling is placed straight back — and a
// remembered result is the result, so what the memo holds (nothing after
// FromSnapshot, anything after eviction) never shows in the tree. Because a
// hit returns the remembered *Component, the next fold of a 3+-member group
// sees the same left input and hits too.
//
// It is the memo's ordered half, and every fold goes through it, one merge
// after another on the apply goroutine: a miss is fitted — or taken from
// pre, the fold phase's fits of the group, when they hold its key — and
// counted, and new and re-used merges go to cur; when cur is full it becomes
// old and the previous old is dropped. Under the from-scratch oracle
// (fromScratch) every merge is fitted and nothing is remembered.
func (c *Coordinator) recordMerge(pre prefits, wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
	if c.fromScratch {
		return gaussian.FitMerge(wi, ci, wj, cj, c.cfg.Merge)
	}
	k := newMergeKey(wi, ci, wj, cj)
	v, inCur, ok := c.memoLookup(k)
	switch {
	case inCur:
		c.tele.memoHits.Inc()
		return v.w, v.rep
	case ok:
		c.tele.memoHits.Inc()
	default:
		if v, ok = pre.find(k); !ok {
			v.w, v.rep = gaussian.FitMerge(wi, ci, wj, cj, c.cfg.Merge)
		}
		c.tele.mergeFits.Inc()
	}
	if len(c.memoCur) >= c.memoLimit {
		c.memoOld, c.memoCur = c.memoCur, make(map[mergeKey]mergeVal, c.memoLimit)
	}
	c.memoCur[k] = v
	c.tele.memoEntries.Set(float64(c.MergeMemoEntries()))
	return v.w, v.rep
}

// MergeMemoEntries returns how many pair merges the memo holds, at most
// 2·memoGeneration. They are not part of MemoryBytes, which stays the
// Theorem-3 model tree.
func (c *Coordinator) MergeMemoEntries() int { return len(c.memoCur) + len(c.memoOld) }
