// Package buildinfo carries the release identity stamped into binaries at
// build time. The Makefile's build target injects the current git
// describe output via
//
//	go build -ldflags "-X cludistream/internal/buildinfo.Version=<v>"
//
// Plain `go build` (and every test binary) keeps the "dev" default.
package buildinfo

import (
	"fmt"
	"runtime"
)

// Version is the ldflags-injected release string.
var Version = "dev"

// String returns a one-line identity suitable for -version output:
// program version, Go toolchain, and target platform.
func String(program string) string {
	return fmt.Sprintf("%s %s (%s %s/%s)",
		program, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
