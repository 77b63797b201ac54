// Package hier holds the upload-on-change rule of Section 7's multi-layer
// networks: every internal node of the tree uploads its locally merged
// global mixture to its parent only when that mixture changes, which keeps
// upper links quiet while lower levels churn. An aggregator (coordd
// -connect, internal/daemon) runs it over real links, internal/tree over
// simulated ones.
package hier

import (
	"math"

	"cludistream/internal/gaussian"
	"cludistream/internal/transport"
)

// UploadMirror is the merge-and-upload-on-change rule every internal node of
// a Section-7 multi-layer network runs toward its parent, shared by the
// real aggregator and the simulated tree: the node presents itself to
// the parent as a single pseudo-site whose one model is replaced — stale
// deletion followed by a fresh NewModel — whenever the locally merged global
// mixture changes, and transmits nothing while the mixture is stable. Sync
// returns the wire messages to transmit; the caller owns the transport
// (a sender.Sender over a netio connection or a simulated tree edge, or an
// in-process coordinator call).
type UploadMirror struct {
	// NodeID is the pseudo-site id the parent sees on every message.
	NodeID int

	// Exact forces bit-level change detection over weights, means and
	// covariances instead of the weightTol/meanTol tolerances —
	// ApproxEqual ignores covariances, so exact replication (as DST
	// requires) cannot be expressed as a zero tolerance.
	Exact bool

	lastModelID int
	lastCount   int
	lastMix     *gaussian.Mixture
}

// weightTol and meanTol define a "material" mixture change (see
// gaussian.Mixture.ApproxEqual); drift inside the tolerance does not
// re-upload.
const weightTol, meanTol = 0.05, 0.25

// NewUploadMirror returns a mirror for pseudo-site nodeID.
func NewUploadMirror(nodeID int) *UploadMirror {
	return &UploadMirror{NodeID: nodeID}
}

// Sync compares mix (with total record weight) against the last uploaded
// mixture and returns the messages that bring the parent up to date: nothing
// when the mixture is unchanged, a single NewModel on first upload, or a
// deletion of the stale pseudo-model followed by the fresh NewModel. A nil
// mix is a no-op. The mirror's state advances as soon as the messages are
// returned; a caller whose transport fails must call Invalidate to force a
// re-send on the next Sync.
func (u *UploadMirror) Sync(mix *gaussian.Mixture, totalWeight float64) []transport.Message {
	if mix == nil {
		return nil
	}
	if u.lastMix != nil && u.unchanged(mix) {
		return nil // stable mixture: the upper link stays silent
	}
	var out []transport.Message
	if u.lastModelID > 0 {
		out = append(out, transport.Message{
			Kind:    transport.MsgDeletion,
			SiteID:  int32(u.NodeID),
			ModelID: int32(u.lastModelID),
			Count:   int64(u.lastCount),
		})
	}
	u.lastModelID++
	count := int(math.Round(totalWeight))
	if count < 1 {
		count = 1
	}
	out = append(out, transport.Message{
		Kind:    transport.MsgNewModel,
		SiteID:  int32(u.NodeID),
		ModelID: int32(u.lastModelID),
		Count:   int64(count),
		Mixture: mix,
	})
	u.lastCount = count
	u.lastMix = mix
	return out
}

// Reset forgets all upload state. Use after an epoch bump: the parent has
// discarded (or will discard, on the first new-epoch message) every model of
// this pseudo-site, so no deletion is owed and model ids restart from 1.
func (u *UploadMirror) Reset() {
	u.lastModelID = 0
	u.lastCount = 0
	u.lastMix = nil
}

// Invalidate forces the next Sync to re-send even if the mixture has not
// changed, without forgetting the pseudo-model the parent may still hold.
func (u *UploadMirror) Invalidate() { u.lastMix = nil }

func (u *UploadMirror) unchanged(mix *gaussian.Mixture) bool {
	if u.Exact {
		return mixEqualBits(mix, u.lastMix)
	}
	return mix.ApproxEqual(u.lastMix, weightTol, meanTol)
}

// mixEqualBits reports bit-level equality of weights, means and covariances.
func mixEqualBits(a, b *gaussian.Mixture) bool {
	if a.K() != b.K() {
		return false
	}
	if a.K() == 0 {
		return true
	}
	d := a.Dim()
	if d != b.Dim() {
		return false
	}
	for j := 0; j < a.K(); j++ {
		if a.Weight(j) != b.Weight(j) {
			return false
		}
		ca, cb := a.Component(j), b.Component(j)
		ma, mb := ca.Mean(), cb.Mean()
		for i := 0; i < d; i++ {
			if ma[i] != mb[i] {
				return false
			}
		}
		va, vb := ca.Cov(), cb.Cov()
		for r := 0; r < d; r++ {
			for c := r; c < d; c++ {
				if va.At(r, c) != vb.At(r, c) {
					return false
				}
			}
		}
	}
	return true
}
