package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"cludistream/internal/buildinfo"
	"cludistream/internal/linalg"
	"cludistream/internal/netio"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

// SiteConfig is cmd/sited's flag set; the flags document each field.
// Site.SiteID names the site on the wire and Site.Telemetry is what
// DebugAddr serves. Next yields the stream's records, Updates of which
// are fed. Epoch 0 derives the incarnation from the wall clock. Stdout and
// Stderr default to the process's own.
type SiteConfig struct {
	Connect         string
	Site            site.Config
	Next            func() linalg.Vector
	Updates         int
	Rate            float64
	SlidingChunks   int
	Archive         string
	MaxRetry        int
	ShutdownTimeout time.Duration
	Epoch           uint32
	DebugAddr       string

	Stdout, Stderr io.Writer
}

// RunSite feeds Updates records through a site connected to cfg.Connect,
// then drains the outbox, prints the delivery report and writes the
// archive. Cancelling ctx stops the initial dial or the feed loop; a
// stopped feed is drained and archived exactly like a natural end.
func RunSite(ctx context.Context, cfg SiteConfig) error {
	stdout, stderr := writers(cfg.Stdout, cfg.Stderr)
	id := cfg.Site.SiteID
	if cfg.DebugAddr != "" {
		dbg, err := telemetry.Serve(cfg.DebugAddr, cfg.Site.Telemetry)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(stdout, "sited %d: debug endpoints on http://%v/debug/vars\n", id, dbg.Addr())
	}
	st, err := site.New(cfg.Site)
	if err != nil {
		return configErr("%v", err)
	}
	opts := netio.DialOptions{
		SlidingHorizonChunks: cfg.SlidingChunks,
		Retry:                netio.RetryPolicy{Epoch: incarnation(cfg.Epoch), Telemetry: cfg.Site.Telemetry},
	}
	c := cfg.Site
	fmt.Fprintf(stdout, "sited: version=%s site=%d dim=%d k=%d epsilon=%g fit_eps=%g delta=%g cmax=%d connect=%s debug_addr=%s\n",
		buildinfo.Version, id, c.Dim, c.K, c.Epsilon, c.FitEps, c.Delta, c.CMax, cfg.Connect, cfg.DebugAddr)
	prefix := fmt.Sprintf("sited %d", id)
	client, err := dialRetry(ctx, cfg.Connect, cfg.MaxRetry, stderr, prefix, func() (*netio.Client, error) {
		return netio.Dial(cfg.Connect, st, id, opts)
	})
	if err != nil {
		return err
	}
	defer client.Close()
	fmt.Fprintf(stdout, "%s: connected to %s, chunk size M=%d\n", prefix, cfg.Connect, st.ChunkSize())

	var throttle <-chan time.Time
	if cfg.Rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer t.Stop()
		throttle = t.C
	}
	start := time.Now()
	fed := 0
	for ; fed < cfg.Updates; fed++ {
		if throttle != nil {
			select {
			case <-throttle:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			fmt.Fprintf(stdout, "%s: interrupted — stopping after %d records\n", prefix, fed)
			break
		}
		if err := client.Observe(cfg.Next()); err != nil {
			// Coordinator rejections affect one message, not the stream;
			// delivery failures are retried by the outbox. Only local site
			// errors (bad records) are fatal.
			if !errors.Is(err, netio.ErrRemote) {
				return err
			}
			fmt.Fprintf(stderr, "%s: %v (continuing)\n", prefix, err)
		}
	}
	elapsed := time.Since(start)

	// Drain whatever the fault-tolerant outbox still holds before
	// reporting; an unreachable coordinator bounds the wait.
	if err := client.Flush(cfg.ShutdownTimeout); err != nil {
		fmt.Fprintf(stderr, "%s: flush: %v\n", prefix, err)
	}
	stats, d := st.Stats(), client.Delivery()
	fmt.Fprintf(stdout, "%s: %d records in %v (%.0f/s) | %d chunks, %d fits, %d EM runs | sent %d msgs / %d bytes\n",
		prefix, fed, elapsed.Round(time.Millisecond), float64(fed)/elapsed.Seconds(),
		stats.Chunks, stats.Fits, stats.EMRuns, d.Acked, d.GoodputBytes)
	if d.Retries > 0 || d.Reconnects > 0 || d.Queued > 0 {
		fmt.Fprintf(stdout, "%s: delivery — %d retries, %d reconnects, %d retransmitted bytes, %d dropped, %d still queued\n",
			prefix, d.Retries, d.Reconnects, d.RetransmitBytes, d.Dropped, d.Queued)
	}
	if cfg.Archive == "" {
		return nil
	}
	var archive bytes.Buffer
	if err := persist.Save(&archive, persist.FromSite(st)); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Archive, archive.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: archive written to %s\n", prefix, cfg.Archive)
	return nil
}
