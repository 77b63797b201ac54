package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"cludistream/internal/chunk"
	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/kdtree"
	"cludistream/internal/linalg"
	"cludistream/internal/query"
	"cludistream/internal/transport"
)

// stageTimes is what the staged replay measured for one message.
type stageTimes struct {
	kind                                       transport.MsgKind
	decode, wal, dedupe, apply, ckpt, mix, pub time.Duration
	bytes                                      int
}

// replay is the second receive pipeline, assembled stage by stage from
// the exported functions netio.Server.apply strings together.
type replay struct {
	msgs        []sentMsg // in ack order; stages[i] belongs to msgs[i]
	stages      []stageTimes
	encode      time.Duration
	checkpoints []time.Duration
	ckptBytes   int64
	weights     []coordinator.ModelWeight
	spans       *spanLog
}

// stagedReplay pushes the traced run's messages, in ack order, through
// transport.Decode → Store.Append → Dedupe.Admit → HandleUpdate or
// HandleDeletion → Store.Checkpoint when due → GlobalMixture →
// Publisher.Publish, timing each stage.
func stagedReplay(g *rig) (*replay, error) {
	var msgs []sentMsg
	for _, d := range g.drivers {
		msgs = append(msgs, d.sent...)
	}
	sort.SliceStable(msgs, func(a, b int) bool { return msgs[a].acked < msgs[b].acked })

	dir := filepath.Join(stateRoot, fmt.Sprintf("replay-%d-%d", os.Getpid(), stateSeq.Add(1)))
	defer os.RemoveAll(dir)
	store, rec, err := durable.Open(dir, coordConfig(), storeOptions())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	coord, ded := rec.Coord, rec.Dedupe
	pub := query.NewPublisher(query.Options{})
	rp := &replay{msgs: msgs, stages: make([]stageTimes, 0, len(msgs)), spans: newSpanLog(time.Now(), 0)}
	var lastVer uint64
	for i, sm := range msgs {
		root := rp.spans.begin("replay.message", 0, i)
		stage := func(name string, fn func()) time.Duration {
			s := rp.spans.begin(name, root, i)
			fn()
			return rp.spans.end(s)
		}
		st := stageTimes{kind: sm.msg.Kind}
		var payload []byte
		rp.encode += stage("transport.encode", func() { payload = transport.Encode(sm.msg) })
		st.bytes = len(payload)
		var msg transport.Message
		st.decode = stage("transport.decode", func() { msg, err = transport.Decode(payload) })
		if err != nil {
			return nil, err
		}
		st.wal = stage("durable.append", func() { err = store.Append(payload) })
		if err != nil {
			return nil, err
		}
		var verdict durable.Verdict
		st.dedupe = stage("durable.dedupe_admit", func() { verdict = ded.Admit(msg.SiteID, msg.Epoch, msg.Seq) })
		if verdict != durable.AdmitFresh {
			return nil, fmt.Errorf("replay: message %d got dedupe verdict %d", i, verdict)
		}
		st.apply = stage("coordinator.apply_"+msg.Kind.String(), func() {
			if msg.Kind == transport.MsgDeletion {
				err = coord.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
			} else {
				err = coord.HandleUpdate(msg.ToSiteUpdate())
			}
		})
		if err != nil {
			return nil, err
		}
		if store.NeedCheckpoint() {
			st.ckpt = stage("durable.checkpoint", func() { err = store.Checkpoint(coord, ded) })
			if err != nil {
				return nil, err
			}
			rp.checkpoints = append(rp.checkpoints, st.ckpt)
			if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.ckpt", store.Gen()))); err == nil {
				rp.ckptBytes = fi.Size()
			}
		}
		if ver := coord.MixtureVersion(); ver != lastVer {
			var mix *gaussian.Mixture
			st.mix = stage("coordinator.global_mixture", func() { mix = coord.GlobalMixture() })
			if mix != nil {
				st.pub = stage("query.publish", func() { _, err = pub.Publish(mix, ver, coord.TotalWeight()) })
				if err != nil {
					return nil, err
				}
			}
			lastVer = ver
		}
		rp.spans.end(root)
		rp.stages = append(rp.stages, st)
	}
	rp.weights = coord.ModelWeights()
	return rp, nil
}

// timeLoop runs fn in batches until about 20 ms have passed and returns
// the mean duration of one call in ns.
func timeLoop(fn func()) float64 {
	fn() // warm caches and lazy indexes
	n, start := 0, time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for i := 0; i < 8; i++ {
			fn()
		}
		n += 8
	}
	return float64(time.Since(start)) / float64(n)
}

// layerMetrics derives every per-layer metric of a traced run.
func layerMetrics(r *result, o runOpts, g *rig, records int, wall time.Duration, m0, m1 *runtime.MemStats) {
	rp, err := stagedReplay(g)
	r.check(err == nil, "staged replay: %v", err)
	if err != nil {
		rp = &replay{spans: newSpanLog(time.Now(), 0)}
	} else {
		var live []coordinator.ModelWeight
		g.p.srv.Snapshot(func(c *coordinator.Coordinator) { live = c.ModelWeights() })
		r.check(slices.Equal(live, rp.weights), "staged replay's ModelWeights differ from the live coordinator's")
	}
	logs := []*spanLog{rp.spans}
	for _, d := range g.drivers {
		logs = append(logs, d.spans)
	}
	err = writeSpans(resultsDir, o.w.name, logs...)
	r.check(err == nil, "write spans: %v", err)
	secs := wall.Seconds()

	// site
	var closeNs, sends []time.Duration
	var obsNs, sendBusy, siteWall time.Duration
	var obsRecs, modelBytes int
	for _, d := range g.drivers {
		closeNs = append(closeNs, d.closeNs...)
		obsNs += d.observeNs
		obsRecs += d.observeRecs
		sendBusy += d.sendBusy
		siteWall += d.wall
		modelBytes += d.st.ModelListBytes()
		for _, m := range d.sent {
			sends = append(sends, m.send)
		}
	}
	r.set("site.observe_ns_per_record", ratio(float64(obsNs), float64(obsRecs)), "ns", obsRecs)
	r.setP50P99("site.chunk_close_ms", closeNs)
	r.set("site.blocked_share", ratio(float64(sendBusy), float64(siteWall)), "ratio", len(sends))
	for _, name := range []string{
		"site.chunks", "site.tests", "site.fits", "site.reactivated", "site.refits", "site.em_runs",
		"site.warm_refits", "site.prune_hits", "site.prune_fallbacks",
		"netio.acked", "netio.retries", "netio.reconnects", "netio.dropped", "netio.rejected",
	} {
		r.set(name, float64(r.Counts[name]), "count", 1)
	}
	r.set("site.fit_share", ratio(float64(r.Counts["site.fits"]), float64(r.Counts["site.chunks"])), "ratio", r.Counts["site.chunks"])
	r.set("site.model_list_bytes", float64(modelBytes), "B", len(g.drivers))

	// netio, with the replayed receive work subtracted per message
	r.setP50P99("netio.send_ms", sends)
	r.set("netio.duplicates", float64(g.p.srv.DeliveryStats().Duplicates), "count", 1)

	// transport, durable, coordinator, query publish: the staged replay
	var decode, applyAll time.Duration
	var wireBytes int
	var wal, dedupe, mix, pub, self []time.Duration
	apply := map[transport.MsgKind][]time.Duration{}
	for i, st := range rp.stages {
		decode += st.decode
		wireBytes += st.bytes
		wal = append(wal, st.wal)
		dedupe = append(dedupe, st.dedupe)
		apply[st.kind] = append(apply[st.kind], st.apply)
		applyAll += st.apply
		if st.mix > 0 {
			mix = append(mix, st.mix)
		}
		if st.pub > 0 {
			pub = append(pub, st.pub)
		}
		self = append(self, rp.msgs[i].send-(st.decode+st.wal+st.dedupe+st.apply+st.ckpt))
	}
	n := float64(len(rp.stages))
	r.set("transport.encode_ns_per_msg", ratio(float64(rp.encode), n), "ns", len(rp.stages))
	r.set("transport.decode_ns_per_msg", ratio(float64(decode), n), "ns", len(rp.stages))
	r.set("transport.bytes_per_msg", ratio(float64(wireBytes), n), "B", len(rp.stages))
	r.set("netio.self_ms_p50", quantile(ms(self), 0.5), "ms", len(self))
	r.setP50P99("durable.append_ms", wal)
	r.set("durable.dedupe_admit_ns", ratio(float64(sum(dedupe)), n), "ns", len(dedupe))
	r.set("durable.checkpoint_ms_p50", quantile(ms(rp.checkpoints), 0.5), "ms", len(rp.checkpoints))
	r.set("durable.checkpoints", float64(len(rp.checkpoints)), "count", 1)
	r.set("durable.checkpoint_bytes", float64(rp.ckptBytes), "B", len(rp.checkpoints))
	r.set("durable.wal_bytes", float64(wireBytes+8*len(rp.stages)), "B", len(rp.stages)) // 8 bytes of frame per record
	for _, k := range []struct {
		kind transport.MsgKind
		name string
	}{
		{transport.MsgNewModel, "new_model"}, {transport.MsgWeightUpdate, "weight"}, {transport.MsgDeletion, "deletion"},
	} {
		r.setP50P99("coordinator.apply_"+k.name+"_ms", apply[k.kind])
	}
	// The set-up messages' apply time is outside the window; the share is
	// of the replayed total, so it can exceed what the window alone held.
	r.set("coordinator.busy_share", ratio(applyAll.Seconds(), secs), "ratio", len(rp.stages))
	r.set("coordinator.global_mixture_ms_p50", quantile(ms(mix), 0.5), "ms", len(mix))
	g.p.srv.Snapshot(func(c *coordinator.Coordinator) {
		st := c.Stats()
		r.set("coordinator.models", float64(c.NumModels()), "count", 1)
		r.set("coordinator.leaves", float64(c.NumLeaves()), "count", 1)
		groups, multi := c.Groups(), 0
		for _, g := range groups {
			if g.Size() > 1 {
				multi++
			}
		}
		r.set("coordinator.groups", float64(len(groups)), "count", 1)
		r.set("coordinator.multi_member_group_share", ratio(float64(multi), float64(len(groups))), "ratio", len(groups))
		r.set("coordinator.splits", float64(st.Splits), "count", 1)
		r.set("coordinator.remerges", float64(st.Remerges), "count", 1)
		r.set("coordinator.memory_bytes", float64(c.MemoryBytes()), "B", 1)
	})
	r.set("query.publish_ms_p50", quantile(ms(pub), 0.5), "ms", len(pub))
	publishes := 0
	for _, t := range g.p.ticks {
		if t.snap != nil {
			publishes++
		}
	}
	r.set("query.publishes", float64(publishes), "count", 1)

	kernelProbes(r, o, g)

	// loadgen, proc
	var late []float64
	pool := 0
	for _, d := range g.drivers {
		late = append(late, ms(d.late)...)
		pool += len(d.pool)
	}
	sort.Float64s(late)
	r.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms", len(late))
	r.set("loadgen.pool_records", float64(pool), "records", len(g.drivers))
	r.set("proc.peak_rss_mb", peakRSSMB(), "MB", 1)
	r.set("proc.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", int(m1.NumGC-m0.NumGC))
	r.set("proc.allocs_per_record", ratio(float64(m1.Mallocs-m0.Mallocs), float64(records)), "allocs", records)
}

// kernelProbes times the layers that are only reachable through the
// calls above, on the workload's own inputs: the first site's pool and
// current model, the chunks that triggered refits, the component pairs
// the NewModel messages carried, the final served snapshot.
func kernelProbes(r *result, o runOpts, g *rig) {
	d0 := g.drivers[0]
	data := d0.pool[:chunkSize]
	perRecord := func(ns float64) float64 { return ns / float64(chunkSize) }

	ck := chunk.NewChunker(chunkSize, dim)
	r.set("chunk.add_ns_per_record", perRecord(timeLoop(func() {
		for _, x := range data {
			if full, _ := ck.Add(x); full != nil {
				ck.Recycle(full)
			}
		}
	})), "ns", chunkSize)

	mixture := d0.st.Current().Mixture
	scratch := gaussian.NewBatchScratch()
	dst := make([]float64, chunkSize)
	r.set("gaussian.score_ns_per_record", perRecord(timeLoop(func() { mixture.ScoreBatch(data, dst, scratch) })), "ns", chunkSize)
	r.set("gaussian.bounds_ns_per_record", perRecord(timeLoop(func() { mixture.AvgLogLikelihoodBounds(data, 4, scratch) })), "ns", chunkSize)

	const block = 128
	comp := mixture.Component(0)
	chol, err := linalg.CholeskyDecompose(comp.Cov())
	r.check(err == nil, "quadform probe: %v", err)
	if err == nil {
		panel := make([]float64, dim*block)
		maha := make([]float64, block)
		r.set("linalg.quadform_ns_per_record", timeLoop(func() {
			linalg.SubRowsInto(data[:block], comp.Mean(), panel, block, block)
			chol.QuadFormPanel(panel, block, block, maha)
		})/block, "ns", block)
	}

	// FitMerge on each NewModel's components against their nearest
	// neighbour in the previous NewModel — the pairs placement considers.
	var models []*gaussian.Mixture
	for _, d := range g.drivers {
		for _, m := range d.sent {
			if m.msg.Kind == transport.MsgNewModel && len(models) < 5 {
				models = append(models, m.msg.Mixture)
			}
		}
	}
	var merges []time.Duration
	for i := 1; i < len(models); i++ {
		prev, cur := models[i-1], models[i]
		for j := 0; j < cur.K(); j++ {
			best, bestD := 0, -1.0
			for k := 0; k < prev.K(); k++ {
				if dd := cur.Component(j).Mean().DistSq(prev.Component(k).Mean()); bestD < 0 || dd < bestD {
					best, bestD = k, dd
				}
			}
			t0 := time.Now()
			gaussian.FitMerge(cur.Weight(j), cur.Component(j), prev.Weight(best), prev.Component(best), coordConfig().Merge)
			merges = append(merges, time.Since(t0))
		}
	}
	r.set("gaussian.fitmerge_ms_p50", quantile(ms(merges), 0.5), "ms", len(merges))

	// em.Fit cold on the chunks that triggered refits.
	var fitsD []time.Duration
	iters := 0
	for _, d := range g.drivers {
		for _, data := range d.refits {
			t0 := time.Now()
			res, err := em.Fit(data, em.Config{K: 5, Seed: siteSeed(o.seed, d.id-1)})
			fitsD = append(fitsD, time.Since(t0))
			r.check(err == nil, "em probe: %v", err)
			if err == nil {
				iters += res.Iterations
			}
		}
	}
	r.setP50P99("em.fit_ms", fitsD)
	r.set("em.iters_per_fit", ratio(float64(iters), float64(len(fitsD))), "iters", len(fitsD))

	// query read ops in process on the final snapshot, and what HTTP adds.
	sn := g.p.pub.Current()
	pts := g.qc.points[0]
	q := g.p.pub.NewQuerier()
	i := 0
	next := func() linalg.Vector { i++; return pts[i%len(pts)] }
	classify := timeLoop(func() { q.Classify(next()) })
	density := timeLoop(func() { q.LogDensity(next()) })
	topk := timeLoop(func() { q.TopK(next(), topK) })
	r.set("query.served_k", float64(sn.K()), "count", 1)
	r.set("query.classify_ns", classify, "ns", 1)
	r.set("query.density_ns", density, "ns", 1)
	r.set("query.topk_ns", topk, "ns", 1)
	batchMs := r.Metrics["query.batch_p50_raw_ms"].Value
	r.set("query.http_overhead_ms_p50", batchMs-batchPoints*(classify+density+topk)/3/1e6, "ms", len(g.qc.rtts))

	tree := kdtree.New(dim)
	for j := 0; j < sn.K(); j++ {
		tree.Insert(j, sn.Component(j).Mean())
	}
	nbrs := make([]kdtree.Neighbor, 0, topK)
	r.set("kdtree.nearestk_ns", timeLoop(func() { nbrs = tree.NearestKInto(next(), topK, nbrs[:0]) }), "ns", 1)
}
