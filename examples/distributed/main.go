// Distributed: the real-network deployment in one process — a coordinator
// server and several remote-site clients talking CluDistream's wire
// protocol over TCP loopback (run coordd/sited for the multi-process
// version). Traffic is routed through a chaos proxy that kills every
// connection after a byte budget, so the run also demonstrates the
// fault-tolerant delivery path: reconnects, retransmissions, and
// exactly-once application at the coordinator. Each site archives its
// state on shutdown, and the example replays an evolving-analysis query
// from the archive.
//
// Run with:
//
//	go run ./examples/distributed
//
// With -debug-addr the run also serves live /debug/vars, /debug/events and
// /debug/traces telemetry while it runs (`obsdump -addr` renders them).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/daemon"
	"cludistream/internal/netio"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"
)

func main() {
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/events and pprof on this address (empty = off)")
	flag.Parse()

	// Tracing is always on with -debug-addr: `obsdump -addr … trace`
	// renders the span waterfalls from /debug/traces, and the clustering
	// output is bit-identical with or without it.
	reg := daemon.Registry(*debugAddr, true)
	if reg != nil {
		dbg, err := telemetry.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%v/debug/vars\n", dbg.Addr())
	}

	coord, err := coordinator.New(coordinator.Config{Dim: 2, Telemetry: reg})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := netio.NewServerOpts("127.0.0.1:0", coord, netio.ServerOptions{Telemetry: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.Logf = func(string, ...any) {} // chaos kills are expected noise
	fmt.Printf("coordinator listening on %v\n", srv.Addr())

	// Every client dials through this proxy, which severs each connection
	// after a small byte budget — synopsis messages are only ~200 bytes,
	// so roughly every second model update dies mid-frame and the sites
	// must reconnect and retransmit to finish.
	proxy, err := netio.NewChaosProxy(srv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	proxy.KillAfter(250)
	fmt.Printf("chaos proxy on %s: connections die every 250 bytes\n", proxy.Addr())

	const sites = 5
	const updatesPerSite = 4000
	var wg sync.WaitGroup
	archives := make([]*persist.SiteArchive, sites)
	deliveries := make([]netio.DeliveryStats, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			st, err := site.New(site.Config{
				SiteID: id, Dim: 2, K: 3, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
				Seed: int64(id), ChunkSize: 400, Telemetry: reg,
			})
			if err != nil {
				log.Fatal(err)
			}
			client, err := netio.Dial(proxy.Addr(), st, id, netio.DialOptions{
				Retry: netio.RetryPolicy{BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Telemetry: reg},
			})
			if err != nil {
				log.Fatal(err)
			}
			defer client.Close()

			gen, err := stream.NewSynthetic(stream.SyntheticConfig{
				Dim: 2, K: 3, Pd: 0.4, RegimeLen: 1500, Seed: int64(100 * id),
			})
			if err != nil {
				log.Fatal(err)
			}
			for rec := 0; rec < updatesPerSite; rec++ {
				if err := client.Observe(gen.Next()); err != nil {
					log.Fatalf("site %d: %v", id, err)
				}
			}
			if err := client.Flush(30 * time.Second); err != nil {
				log.Fatalf("site %d: flush: %v", id, err)
			}
			d := client.Delivery()
			deliveries[id-1] = d
			fmt.Printf("site %d: %d records → %d messages, %d goodput bytes (+%d retransmitted, %d reconnects)\n",
				id, updatesPerSite, d.Acked, d.GoodputBytes, d.RetransmitBytes, d.Reconnects)
			archives[id-1] = persist.FromSite(st)
		}(i + 1)
	}
	wg.Wait()

	var goodput, retrans, reconnects int
	for _, d := range deliveries {
		goodput += d.GoodputBytes
		retrans += d.RetransmitBytes
		reconnects += d.Reconnects
	}
	ds := srv.DeliveryStats()
	fmt.Printf("\ncoordinator applied %d messages / %d bytes in (%d errors)\n", ds.Applied, ds.BytesIn, ds.ApplyErrors)
	fmt.Printf("fault tolerance: %d goodput bytes, %d retransmitted bytes, %d reconnects; "+
		"%d duplicate msgs (%d bytes) deduped server-side\n",
		goodput, retrans, reconnects, ds.Duplicates, ds.DuplicateBytes)
	fmt.Printf("raw stream volume would have been %d bytes — synopsis ratio %.3f%%\n",
		sites*updatesPerSite*2*8, 100*float64(goodput)/float64(sites*updatesPerSite*2*8))
	srv.Snapshot(func(c *coordinator.Coordinator) {
		gm := c.GlobalMixture()
		fmt.Printf("global model: %d site models merged into %d groups (K=%d)\n",
			c.NumModels(), len(c.Groups()), gm.K())
	})

	// Offline evolving analysis: round-trip site 1's archive through the
	// binary format and query a historical window.
	var buf bytes.Buffer
	if err := persist.Save(&buf, archives[0]); err != nil {
		log.Fatal(err)
	}
	archiveBytes := buf.Len()
	loaded, err := persist.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsite 1 archive: %d bytes, %d models, %d events\n",
		archiveBytes, len(loaded.Models), len(loaded.Events))
	if m := loaded.WindowMixture(1, 3); m != nil {
		fmt.Printf("chunks 1-3 were modelled by a %d-component mixture\n", m.K())
	}
}
