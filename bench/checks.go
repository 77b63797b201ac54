package main

import (
	"bytes"
	"math"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/persist"
	"cludistream/internal/site"
)

// selfChecks defines a failed operation beyond an error return: after
// every run the delivery counters, the coordinator's weights and the
// served replies must agree with what the drivers did.
func selfChecks(r *result, o runOpts, g *rig) {
	totalAcked := 0
	for _, d := range g.drivers {
		ds := d.delivery()
		totalAcked += ds.Acked
		r.check(ds.Queued == 0 && ds.Dropped == 0 && ds.Rejected == 0 && ds.Retries == 0 && ds.Reconnects == 0,
			"site %d delivery: %+v", d.id, ds)
		if d.conn != nil {
			r.check(ds.Acked == len(d.sent), "site %d: %d acked, %d sent", d.id, ds.Acked, len(d.sent))
		}
	}
	ss := g.p.srv.DeliveryStats()
	r.check(ss.ApplyErrors == 0 && ss.Duplicates == 0 && ss.SiteResets == 0 && ss.Applied == totalAcked,
		"server stats %+v, sites acked %d", ss, totalAcked)
	r.check(g.p.srvLogs.Load() == 0, "server logged %d errors", g.p.srvLogs.Load())
	r.check(g.p.pubFails.Load() == 0, "%d publishes failed", g.p.pubFails.Load())
	r.check(len(g.p.ticks) < maxTicks, "tick log full")

	var weights []coordinator.ModelWeight
	var total float64
	g.p.srv.Snapshot(func(c *coordinator.Coordinator) {
		weights = c.ModelWeights()
		total = c.TotalWeight()
	})
	want := 0
	for _, d := range g.drivers {
		exp := expectedWeights(d.st, o.w.sliding)
		for _, mw := range weights {
			if mw.SiteID != d.id {
				continue
			}
			r.check(exp[mw.ModelID] == mw.Counter, "site %d model %d: coordinator weight %d, site says %d",
				d.id, mw.ModelID, mw.Counter, exp[mw.ModelID])
			delete(exp, mw.ModelID)
		}
		for id, c := range exp {
			r.check(c == 0, "site %d model %d (weight %d) missing at the coordinator", d.id, id, c)
		}
		st := d.st.Stats()
		if o.w.sliding {
			want += min(st.Chunks, slidingHorizon) * chunkSize
		} else {
			want += (st.Refits + st.Reactivated) * chunkSize
		}
	}
	// Group weights are sums of float products, so allow rounding.
	r.check(math.Abs(total-float64(want)) <= 1e-9*float64(want), "coordinator TotalWeight %v, want %d", total, want)

	if bad := g.qc.verify(g.p.snapshotsByVersion()); bad > 0 {
		r.Failed += bad // each batch was already counted as attempted
		r.Failures = append(r.Failures, "CLUR replies not reproduced bit-exactly on the retained snapshot")
	}
}

// expectedWeights is the weight the coordinator must hold per site model.
// Landmark window: a fitting chunk is silent (Section 5.3), so what a
// model has transmitted is M per governance span — each span opens with a
// NewModel or a re-activation WeightUpdate — not the site's Counter, which
// also counts the silent fits. Sliding window: every chunk is transmitted
// and every chunk older than the horizon deleted, so the weight is M × the
// chunks of the window the model governs (a model with none is dropped).
func expectedWeights(st *site.Site, sliding bool) map[int]int {
	exp := make(map[int]int)
	if !sliding {
		for _, e := range st.Events().All() {
			exp[e.ModelID] += chunkSize
		}
		if cur := st.Current(); cur != nil {
			exp[cur.ID] += chunkSize
		}
		return exp
	}
	newest := st.ChunksSeen()
	for c := max(1, newest-slidingHorizon+1); c <= newest; c++ {
		id, ok := st.Events().ModelAt(c)
		if !ok {
			id = st.Current().ID
		}
		exp[id] += chunkSize
	}
	return exp
}

func encodeState(snap *coordinator.Snapshot) []byte {
	var buf bytes.Buffer
	if err := persist.SaveCoordinatorState(&buf, &persist.CoordinatorState{Snapshot: snap}); err != nil {
		return nil
	}
	return buf.Bytes()
}

// near compares two floats to a relative 1e-9.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// sameState reports whether two coordinator snapshots hold the same tree:
// every count, key and id exactly, every float to a relative 1e-9. It
// decides whether a recovery that is not byte-identical is the known
// defect (README findings ledger, item d: a mixture that passes through a
// checkpoint has its weights normalised once more and can come back an ulp
// off) or a new one.
func sameState(a, b *coordinator.Snapshot) bool {
	if a.Dim != b.Dim || a.NextGroupID != b.NextGroupID || a.Stats != b.Stats ||
		len(a.Models) != len(b.Models) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i, ma := range a.Models {
		mb := b.Models[i]
		if ma.SiteID != mb.SiteID || ma.ModelID != mb.ModelID || ma.Counter != mb.Counter || ma.Mixture.K() != mb.Mixture.K() {
			return false
		}
		for j := 0; j < ma.Mixture.K(); j++ {
			ca, cb := ma.Mixture.Component(j), mb.Mixture.Component(j)
			if !near(ma.Mixture.Weight(j), mb.Mixture.Weight(j)) || !ca.Mean().Equal(cb.Mean(), 1e-9) || !ca.Cov().Equal(cb.Cov(), 1e-9) {
				return false
			}
		}
	}
	for i, ga := range a.Groups {
		gb := b.Groups[i]
		if ga.ID != gb.ID || len(ga.Members) != len(gb.Members) {
			return false
		}
		for j, m := range ga.Members {
			if m.Key != gb.Members[j].Key || !near(m.MRemergeAtJoin, gb.Members[j].MRemergeAtJoin) {
				return false
			}
		}
	}
	return true
}

// recoverProbe crashes the store (no flush, no final checkpoint) and
// times durable.Open on the state directory; the recovered coordinator's
// Snapshot must be byte-identical to the crashed one's. It runs last: the
// drivers are closed and the store is gone afterwards.
func recoverProbe(r *result, g *rig) {
	for _, d := range g.drivers {
		d.close()
	}
	var pre *coordinator.Snapshot
	var tail int
	g.p.srv.Snapshot(func(c *coordinator.Coordinator) {
		pre = c.Snapshot()
		tail = g.p.store.WALRecords()
	})
	r.check(g.p.store.Crash() == nil, "store crash")
	t0 := time.Now()
	store, rec, err := durable.Open(g.p.dir, coordConfig(), storeOptions())
	took := time.Since(t0)
	r.check(err == nil, "recover: %v", err)
	if err != nil {
		return
	}
	defer store.Close()
	r.set("durable.recover_s", took.Seconds(), "s", 1)
	r.set("durable.replayed_records", float64(rec.RecordsReplayed), "count", 1)
	r.check(rec.RecordsReplayed == tail, "replayed %d WAL records, tail was %d", rec.RecordsReplayed, tail)

	post := rec.Coord.Snapshot()
	identical := bytes.Equal(encodeState(pre), encodeState(post))
	if !identical && sameState(pre, post) {
		// The known defect: reported on every rep it shows on, but kept out
		// of the failed operations so that the workloads stay usable.
		r.Attempted++
		r.Known = append(r.Known, "recovered Coordinator.Snapshot() is not byte-identical to the pre-crash one (floats agree to 1e-9; ledger item d)")
	} else {
		r.check(identical, "recovered coordinator differs from the crashed one")
	}
	mismatch := 0.0
	if !identical {
		mismatch = 1
	}
	r.set("durable.recover_byte_mismatch", mismatch, "count", 1)
}
