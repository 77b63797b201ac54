package coordinator

import (
	"fmt"
	"math"
	"sort"

	"cludistream/internal/gaussian"
)

// Snapshot is the coordinator's complete serializable state: the
// registered site models with their record counters, and the model tree's
// grouping — which leaf lives under which father, in which order the
// fathers were created. Everything else (group representatives, member
// weights, the placement index) is recomputed deterministically by
// FromSnapshot, so a snapshot round trip is bit-identical: the recovered
// coordinator answers every query — GlobalMixture, ModelWeights, Stats —
// exactly as the original would, and applies any future update stream to
// exactly the same state.
type Snapshot struct {
	// Dim is the data dimensionality the coordinator was built for.
	Dim int
	// NextGroupID is the id the next created group will take. Persisted —
	// not derived from the live groups — because placement ties are broken
	// by scan order and historical ids may be gone.
	NextGroupID int
	// Stats are the work counters at snapshot time.
	Stats Stats
	// Models lists every registered site model, sorted by (site, model).
	Models []SnapshotModel
	// Groups holds the father nodes in the coordinator's live slice order.
	// Order matters: placement scans groups in insertion order with a
	// strict "<" tie-break, so a reordered restore could place a future
	// leaf into a different (equally near) group than the original would.
	Groups []SnapshotGroup
}

// SnapshotModel is one registered site model.
type SnapshotModel struct {
	SiteID  int
	ModelID int
	Counter int
	Mixture *gaussian.Mixture
}

// SnapshotGroup is one father node: its stable id and its members in
// deterministic key order. Weights and the representative are derived.
type SnapshotGroup struct {
	ID      int
	Members []SnapshotMember
}

// SnapshotMember is one leaf: its key and the Algorithm-2 stability
// reference frozen at join time (MRemergeAtJoin is +Inf for a leaf that
// seeded its own group). The component itself and its absolute weight are
// recovered from the owning model's mixture and counter.
type SnapshotMember struct {
	Key            MemberKey
	MRemergeAtJoin float64
}

// Snapshot captures the coordinator's state. The mixtures are shared
// (immutable once registered), so the snapshot is cheap; it must not be
// taken concurrently with HandleUpdate.
func (c *Coordinator) Snapshot() *Snapshot {
	snap := &Snapshot{Dim: c.cfg.Dim, NextGroupID: c.nextID, Stats: c.stats}
	for _, byModel := range c.models {
		for _, sm := range byModel {
			snap.Models = append(snap.Models, SnapshotModel{
				SiteID:  sm.siteID,
				ModelID: sm.modelID,
				Counter: sm.counter,
				Mixture: sm.mix,
			})
		}
	}
	sort.Slice(snap.Models, func(a, b int) bool {
		if snap.Models[a].SiteID != snap.Models[b].SiteID {
			return snap.Models[a].SiteID < snap.Models[b].SiteID
		}
		return snap.Models[a].ModelID < snap.Models[b].ModelID
	})
	for _, g := range c.groups {
		sg := SnapshotGroup{ID: g.id}
		for _, m := range g.members {
			sg.Members = append(sg.Members, SnapshotMember{
				Key:            m.key,
				MRemergeAtJoin: m.mremergeAtJoin,
			})
		}
		snap.Groups = append(snap.Groups, sg)
	}
	return snap
}

// FromSnapshot rebuilds a coordinator from a snapshot. cfg must describe
// the same deployment the snapshot was taken from (same Dim, same merge
// options) or recovery cannot be bit-identical; a zero cfg.Dim adopts the
// snapshot's. The snapshot is validated structurally — unknown member
// models, duplicate placements, or leaves missing from the tree are
// reported rather than silently repaired, since they mean the snapshot
// was corrupted.
func FromSnapshot(cfg Config, snap *Snapshot) (*Coordinator, error) {
	if snap == nil {
		return nil, fmt.Errorf("coordinator: nil snapshot")
	}
	if cfg.Dim == 0 {
		cfg.Dim = snap.Dim
	}
	if cfg.Dim != snap.Dim {
		return nil, fmt.Errorf("coordinator: snapshot dim %d, config dim %d", snap.Dim, cfg.Dim)
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range snap.Models {
		if m.Mixture == nil {
			return nil, fmt.Errorf("coordinator: snapshot model %d/%d has no mixture", m.SiteID, m.ModelID)
		}
		if m.Mixture.Dim() != c.cfg.Dim {
			return nil, fmt.Errorf("coordinator: snapshot model %d/%d dim %d, want %d", m.SiteID, m.ModelID, m.Mixture.Dim(), c.cfg.Dim)
		}
		if m.Counter <= 0 {
			// A drained model is deleted from the live list (Section 7's
			// rule), so it can never appear in a snapshot.
			return nil, fmt.Errorf("coordinator: snapshot model %d/%d counter %d", m.SiteID, m.ModelID, m.Counter)
		}
		byModel := c.models[m.SiteID]
		if byModel == nil {
			byModel = make(map[int]*siteModel)
			c.models[m.SiteID] = byModel
		}
		if _, dup := byModel[m.ModelID]; dup {
			return nil, fmt.Errorf("coordinator: snapshot repeats model %d/%d", m.SiteID, m.ModelID)
		}
		byModel[m.ModelID] = &siteModel{siteID: m.SiteID, modelID: m.ModelID, mix: m.Mixture, counter: m.Counter}
	}
	for _, sg := range snap.Groups {
		if sg.ID < 1 || sg.ID >= snap.NextGroupID {
			return nil, fmt.Errorf("coordinator: snapshot group id %d outside [1, %d)", sg.ID, snap.NextGroupID)
		}
		if _, dup := c.byID[sg.ID]; dup {
			return nil, fmt.Errorf("coordinator: snapshot repeats group %d", sg.ID)
		}
		if len(sg.Members) == 0 {
			return nil, fmt.Errorf("coordinator: snapshot group %d is empty", sg.ID)
		}
		g := &Group{id: sg.ID}
		for _, smem := range sg.Members {
			sm := c.lookup(smem.Key.SiteID, smem.Key.ModelID)
			if sm == nil {
				return nil, fmt.Errorf("coordinator: snapshot member %v references an unknown model", smem.Key)
			}
			if smem.Key.Comp < 0 || smem.Key.Comp >= sm.mix.K() {
				return nil, fmt.Errorf("coordinator: snapshot member %v component out of range (K=%d)", smem.Key, sm.mix.K())
			}
			if _, dup := c.location[smem.Key]; dup {
				return nil, fmt.Errorf("coordinator: snapshot places %v twice", smem.Key)
			}
			if math.IsNaN(smem.MRemergeAtJoin) || smem.MRemergeAtJoin <= 0 {
				return nil, fmt.Errorf("coordinator: snapshot member %v MRemergeAtJoin %v", smem.Key, smem.MRemergeAtJoin)
			}
			g.insert(&member{
				key:  smem.Key,
				comp: sm.mix.Component(smem.Key.Comp),
				// The live weight is maintained as exactly this product
				// (see shiftWeight), so re-deriving it is bit-identical.
				weight:         sm.mix.Weight(smem.Key.Comp) * float64(sm.counter),
				mremergeAtJoin: smem.MRemergeAtJoin,
			})
			c.location[smem.Key] = g.id
		}
		c.groups = append(c.groups, g)
		c.byID[g.id] = g
	}
	// recomputeRep runs after every live mutation (refreshGroup), so the
	// live reps and weights always equal this recomputation. Snapshots do
	// not persist the dirty-group set, so recovery marks every group dirty,
	// as refreshGroup does: a provably-safe superset — re-checking a group
	// that was clean in the original is a no-op (its members were verified
	// stable against a representative the snapshot reproduced
	// bit-identically), while any group the original still had pending gets
	// its sweep.
	c.refreshGroups(c.groups)
	// Every component of every registered model must sit in exactly one
	// group (placement is total; removeLeaves always precedes model removal).
	for _, byModel := range c.models {
		for _, sm := range byModel {
			for j := 0; j < sm.mix.K(); j++ {
				key := MemberKey{SiteID: sm.siteID, ModelID: sm.modelID, Comp: j}
				if _, ok := c.location[key]; !ok {
					return nil, fmt.Errorf("coordinator: snapshot leaf %v is in no group", key)
				}
			}
		}
	}
	if snap.NextGroupID >= 1 {
		c.nextID = snap.NextGroupID
	}
	c.stats = snap.Stats
	c.tele.setSizes(len(c.groups), len(c.location))
	return c, nil
}
