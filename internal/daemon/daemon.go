// Package daemon holds the bodies of the two daemons, so the processes
// are thin flag parsers and everything they do runs in-process under
// `go test`. StartCoordinator is cmd/coordd: a root coordinator, or — with
// Connect set — an aggregator that is the same node plus an uplink to its
// parent (Section 7: "running CluDistream between each internal node and
// its children"). RunSite is cmd/sited: feed a stream through a site and
// ship its updates.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"cludistream/internal/telemetry"
)

// ErrConfig marks an error caused by the configuration itself — a bad
// flag value rather than a failure at run time. Mains exit 2 on it.
var ErrConfig = errors.New("invalid configuration")

// ExitCode maps a daemon error to a process exit status: 2 for
// configuration errors, 1 for everything else.
func ExitCode(err error) int {
	if errors.Is(err, ErrConfig) {
		return 2
	}
	return 1
}

func configErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
}

// Registry returns the telemetry registry a daemon serves on debugAddr,
// with tracing enabled when trace is set; nil when debugAddr is empty
// (no instruments at all).
func Registry(debugAddr string, trace bool) *telemetry.Registry {
	if debugAddr == "" {
		return nil
	}
	reg := telemetry.NewRegistry()
	if trace {
		reg.EnableTracing(telemetry.TraceOptions{})
	}
	return reg
}

// incarnation returns epoch, or the wall clock in seconds when it is 0:
// a restarted process derives a fresh, higher epoch by default, so its
// parent discards the dead incarnation instead of dropping the new one's
// first messages as duplicates.
func incarnation(epoch uint32) uint32 {
	if epoch == 0 {
		return uint32(time.Now().Unix())
	}
	return epoch
}

// dialRetry calls dial until it succeeds, with doubling backoff from
// 500 ms up to 10 s, so a daemon can start before its parent or ride out
// a parent restart. maxRetry bounds the attempts (negative retries
// forever). The wait between attempts ends as soon as ctx is cancelled,
// so a signal during a retry-forever wait still stops the daemon.
func dialRetry[T any](ctx context.Context, addr string, maxRetry int, log io.Writer, prefix string, dial func() (T, error)) (T, error) {
	backoff := 500 * time.Millisecond
	for attempt := 1; ; attempt++ {
		conn, err := dial()
		if err == nil {
			return conn, nil
		}
		if maxRetry >= 0 && attempt >= maxRetry {
			return conn, fmt.Errorf("dial %s: %w (after %d attempts)", addr, err, attempt)
		}
		fmt.Fprintf(log, "%s: dial %s: %v — retrying in %v\n", prefix, addr, err, backoff)
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return conn, fmt.Errorf("dial %s: %w", addr, ctx.Err())
		case <-t.C:
		}
		backoff = min(2*backoff, 10*time.Second)
	}
}

// writers resolves a daemon's operator log and warning streams.
func writers(stdout, stderr io.Writer) (io.Writer, io.Writer) {
	if stdout == nil {
		stdout = os.Stdout
	}
	if stderr == nil {
		stderr = os.Stderr
	}
	return stdout, stderr
}
