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

// memoGeneration is how many merges one generation of the memo of a group of
// size members holds: a touch at fold position p re-fits at most the
// size−1−p merges after it, so a few folds' worth of prefixes stay
// remembered, and the memo's entries are bounded by the live leaves.
func memoGeneration(size int) int { return max(8, 4*size) }

// foldMemo is one group's memo of its pair merges: gaussian.FitMerge,
// remembered by exact input. Sliding windows re-fit the same pair over and
// over — a model's counter oscillates +M, −M once its window is full, and a
// founder split by its first sibling is placed straight back — and a
// remembered result is the result, so what the memo holds (nothing after
// FromSnapshot, anything after eviction) never shows in the tree. Because a
// hit returns the remembered *Component, the next fold of a 3+-member group
// sees the same left input and hits too.
//
// It keeps two generations and at most 2·limit merges: new and re-used
// merges go to cur; when cur holds limit merges, or the memo 2·limit, cur
// becomes old and the previous old is dropped. Only its group's fold touches
// it, so the folds of distinct groups run concurrently (refreshGroups).
type foldMemo struct {
	cur, old map[mergeKey]mergeVal
	// fits, hits and grown are the merges fitted, the merges found and the
	// change in entries since the coordinator last collected them (settle).
	fits, hits, grown int
}

func (m *foldMemo) lookup(k mergeKey) (v mergeVal, inCur, ok bool) {
	if v, ok = m.cur[k]; ok {
		return v, true, true
	}
	v, ok = m.old[k]
	return v, false, ok
}

func (m *foldMemo) len() int { return len(m.cur) + len(m.old) }

// bound brings a memo filled while its group was larger back to at most
// 2·limit merges, and cur below 2·limit so that the next rotation keeps
// that: it drops old, then cur if that is still too many.
func (m *foldMemo) bound(limit int) {
	if m.len() > 2*limit {
		m.grown -= len(m.old)
		m.old = nil
	}
	if len(m.cur) >= 2*limit {
		m.grown -= len(m.cur)
		m.cur = nil
	}
}

// merge is gaussian.FitMerge of the pair through the memo: a hit is counted
// and returned, a miss fitted and counted, and either is recorded in cur.
func (m *foldMemo) merge(limit int, opts gaussian.MergeOptions, wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
	k := newMergeKey(wi, ci, wj, cj)
	v, inCur, ok := m.lookup(k)
	switch {
	case inCur:
		m.hits++
		return v.w, v.rep
	case ok:
		m.hits++
	default:
		v.w, v.rep = gaussian.FitMerge(wi, ci, wj, cj, opts)
		m.fits++
	}
	if len(m.cur) >= limit || m.len() >= 2*limit {
		m.grown -= len(m.old)
		m.old, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[mergeKey]mergeVal, limit)
	}
	m.cur[k] = v
	m.grown++
	return v.w, v.rep
}

// MergeMemoEntries returns how many pair merges the groups' memos hold, at
// most Σ 2·memoGeneration(|g|) ≤ 8·leaves + 16·groups. They are not part of
// MemoryBytes, which stays the Theorem-3 model tree.
func (c *Coordinator) MergeMemoEntries() int { return c.memoEntries }
