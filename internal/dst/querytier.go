package dst

import (
	"fmt"
	"math"

	"cludistream/internal/query"
)

// The snapshot-vs-ingest race invariant: every snapshot the query tier
// serves must equal the root's state at some applied-update prefix —
// exactly, bit for bit — and must stay that way for as long as any reader
// holds it, no matter how much ingest, remerge or compaction runs
// afterwards. DST drives the real Publisher on the virtual clock after
// every update the root applies, fingerprints the root's mixture at that
// prefix, pins a sample of published snapshots, and re-verifies every pin
// after every later root apply and at final drain.

// heldSnap is a pinned published snapshot plus the prefix fingerprint it
// matched at publish and the exact values it served then.
type heldSnap struct {
	sn   *query.Snapshot
	fp   uint64
	vals []float64
	// update is the applied-update prefix the snapshot was published at
	// (for the violation message).
	update int
}

// pinEvery is the sampling interval for pinned snapshots; maxPins caps
// the re-verification work per root apply.
const (
	pinEvery = 8
	maxPins  = 32
)

// snapshotFingerprint hashes a served snapshot in the same canonical form
// as Fingerprint, so snapshot-vs-prefix equality is a hash comparison.
func snapshotFingerprint(sn *query.Snapshot) uint64 {
	return fingerprintModel(sn.K(), sn.Weight, sn.Component)
}

// snapshotValues appends every value sn serves — each component's weight,
// mean and packed covariance, in component order — to dst.
func snapshotValues(dst []float64, sn *query.Snapshot) []float64 {
	for j := 0; j < sn.K(); j++ {
		c := sn.Component(j)
		dst = append(append(append(dst, sn.Weight(j)), c.Mean()...), c.Cov().Packed()...)
	}
	return dst
}

// checkQueryTier runs after every update the root applies: publish the
// post-apply mixture through the real RCU publisher, verify the served
// snapshot is bit-identical to the root's state at this exact prefix, verify
// the read ops reproduce the mixture's own scoring, and re-verify every
// pinned snapshot still matches the prefix it was published at.
func (c *checker) checkQueryTier() {
	if c.violation != nil {
		return
	}
	coord := c.dep.NodeCoordinator(0)
	mix := coord.GlobalMixture()
	if mix == nil {
		return
	}
	prefixFP := Fingerprint(mix)
	sn, err := c.pub.Publish(mix, coord.MixtureVersion(), coord.TotalWeight())
	if err != nil {
		c.fail("snapshot-consistency", fmt.Sprintf("publish at update %d failed: %v", c.updates, err))
		return
	}
	if c.pub.Current() != sn {
		c.fail("snapshot-consistency", "Current() does not serve the snapshot that was just published")
		return
	}
	if fp := snapshotFingerprint(sn); fp != prefixFP {
		c.fail("snapshot-consistency", fmt.Sprintf("published snapshot fingerprint %016x != coordinator prefix fingerprint %016x at update %d", fp, prefixFP, c.updates))
		return
	}
	// Read-op parity at the publish instant: the snapshot's zero-alloc
	// scoring must reproduce the mixture's own, and the kd-index must
	// resolve a component's mean to that component at distance zero.
	x := mix.Component(0).Mean()
	if got, want := sn.LogDensity(x, c.qscratch), mix.LogPDF(x); got != want {
		c.fail("snapshot-consistency", fmt.Sprintf("snapshot LogDensity %v != mixture LogPDF %v at update %d", got, want, c.updates))
		return
	}
	if res := sn.Classify(x, c.qscratch); res.LogDensity != mix.LogPDF(x) {
		c.fail("snapshot-consistency", fmt.Sprintf("snapshot Classify density %v != mixture LogPDF at update %d", res.LogDensity, c.updates))
		return
	}
	if nbrs := sn.TopK(x, 1, c.qscratch); len(nbrs) != 1 || nbrs[0].DistSq != 0 {
		c.fail("snapshot-consistency", fmt.Sprintf("kd-index did not resolve component 0's mean to distance 0 at update %d (got %v)", c.updates, nbrs))
		return
	}
	if c.updates%pinEvery == 0 && len(c.held) < maxPins {
		c.held = append(c.held, heldSnap{sn: sn, fp: prefixFP, vals: snapshotValues(nil, sn), update: c.updates})
	}
	c.recheckHeldSnapshots()
}

// recheckHeldSnapshots compares every pinned snapshot, bit for bit, with
// the values it served at publish, when it matched its prefix's
// fingerprint: a pin that changes means later ingest mutated served
// state — the deep-copy isolation is broken.
func (c *checker) recheckHeldSnapshots() {
	if c.violation != nil {
		return
	}
	for _, h := range c.held {
		c.qvals = snapshotValues(c.qvals[:0], h.sn)
		if !sameBits(c.qvals, h.vals) {
			c.fail("snapshot-consistency", fmt.Sprintf("snapshot published at update %d changed after later ingest: fingerprint %016x, was %016x at publish", h.update, snapshotFingerprint(h.sn), h.fp))
			return
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
