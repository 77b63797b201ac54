package coordinator

import (
	"fmt"
	"sort"

	"cludistream/internal/gaussian"
)

// MemberKey identifies one Gaussian component of one model of one remote
// site — a leaf of the coordinator's model tree.
type MemberKey struct {
	SiteID  int
	ModelID int
	Comp    int
}

func (k MemberKey) String() string {
	return fmt.Sprintf("site%d/model%d/comp%d", k.SiteID, k.ModelID, k.Comp)
}

// less orders keys deterministically (site, model, component).
func (k MemberKey) less(o MemberKey) bool {
	if k.SiteID != o.SiteID {
		return k.SiteID < o.SiteID
	}
	if k.ModelID != o.ModelID {
		return k.ModelID < o.ModelID
	}
	return k.Comp < o.Comp
}

// member is a leaf component together with its absolute weight (the site
// model's component weight times the model's record counter) and the
// M_remerge value recorded when it last joined its father — Algorithm 2's
// stability reference.
type member struct {
	key    MemberKey
	comp   *gaussian.Component
	weight float64
	// mremergeAtJoin is M_remerge(member, father) at join time. Algorithm 2
	// splits the member when M_split grows past 1/mremergeAtJoin.
	mremergeAtJoin float64
	// checked is the id of the last stability sweep that evaluated this
	// member (see Coordinator.stabilize); it bounds every sweep to one
	// check per member.
	checked uint64
}

// Group is a father node: a set of member components merged into one
// representative Gaussian.
type Group struct {
	id      int
	members []*member // kept sorted by key for determinism
	rep     *gaussian.Component
	weight  float64
	memo    foldMemo // the pair merges of its folds (refreshGroup)
}

// ID returns the group's stable identifier.
func (g *Group) ID() int { return g.id }

// Weight returns the total member weight.
func (g *Group) Weight() float64 { return g.weight }

// Size returns the number of member components.
func (g *Group) Size() int { return len(g.members) }

// Representative returns the merged Gaussian standing for the whole group.
func (g *Group) Representative() *gaussian.Component { return g.rep }

func (g *Group) find(key MemberKey) int {
	for i, m := range g.members {
		if m.key == key {
			return i
		}
	}
	return -1
}

func (g *Group) insert(m *member) {
	// Binary-search insertion keeps the key order a full sort would produce
	// (keys are unique, so the two are identical) without sort.Slice's
	// reflection machinery on the coordinator's hottest mutation.
	i := sort.Search(len(g.members), func(i int) bool { return m.key.less(g.members[i].key) })
	g.members = append(g.members, nil)
	copy(g.members[i+1:], g.members[i:])
	g.members[i] = m
	g.weight += m.weight
}

func (g *Group) remove(i int) *member {
	m := g.members[i]
	g.members = append(g.members[:i], g.members[i+1:]...)
	g.weight -= m.weight
	return m
}

// recomputeRep rebuilds the representative by pairwise merging the members
// in deterministic (key) order through merge — gaussian.FitMerge remembered
// in the group's memo (see Coordinator.foldGroup).
func (g *Group) recomputeRep(merge pairMerge) {
	g.weight, g.rep = g.fold(merge)
}

// fold merges the members pairwise in key order through merge and returns
// the father's weight and component — nil with weight 0 for an empty group.
func (g *Group) fold(merge pairMerge) (float64, *gaussian.Component) {
	if len(g.members) == 0 {
		return 0, nil
	}
	w := g.members[0].weight
	rep := g.members[0].comp
	for _, m := range g.members[1:] {
		w, rep = merge(w, rep, m.weight, m.comp)
	}
	return w, rep
}

// misses reports whether g's fold fits at least one merge: it follows the
// fold through g's memo up to its first miss.
func (g *Group) misses() bool {
	missed := false
	g.fold(func(wi float64, ci *gaussian.Component, wj float64, cj *gaussian.Component) (float64, *gaussian.Component) {
		if !missed {
			if v, _, ok := g.memo.lookup(newMergeKey(wi, ci, wj, cj)); ok {
				return v.w, v.rep
			}
			missed = true
		}
		return wi, ci
	})
	return missed
}
