//go:build unix

package gaussian

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestLSEKernelFollowsMathExp re-runs TestLSESIMDMatchesGo in one child
// process of this test binary under GODEBUG=cpu.fma=off, which switches
// math.Exp to its non-FMA sequence (where the build's GOAMD64 level lets
// FMA be turned off). The child must pass with the kernel on only where
// math.Exp still runs the FMA sequence, and otherwise report the kernel
// off. The child runs in its own process group, killed when the test ends.
func TestLSEKernelFollowsMathExp(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestLSESIMDMatchesGo$", "-test.v", "-test.count=1")
	godebug := "cpu.fma=off"
	if v := os.Getenv("GODEBUG"); v != "" {
		godebug = v + "," + godebug
	}
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
	})
	out, err := cmd.CombinedOutput()
	log := string(out)
	if err != nil {
		t.Fatalf("child under GODEBUG=%s: %v\n%s", godebug, err, log)
	}
	fma := strings.Contains(log, "math.Exp runs its FMA sequence: true")
	if !fma && !strings.Contains(log, "math.Exp runs its FMA sequence: false") {
		t.Fatalf("child did not report math.Exp's sequence:\n%s", log)
	}
	switch {
	case strings.Contains(log, "--- PASS: TestLSESIMDMatchesGo"):
		if !fma {
			t.Fatalf("kernel on while math.Exp runs its non-FMA sequence:\n%s", log)
		}
		t.Logf("math.Exp kept its FMA sequence under GODEBUG=%s; the kernel matched it", godebug)
	case strings.Contains(log, "--- SKIP: TestLSESIMDMatchesGo") && strings.Contains(log, "lseKernel off"):
		t.Logf("math.Exp FMA sequence under GODEBUG=%s: %v; the kernel turned itself off", godebug, fma)
	default:
		t.Fatalf("child neither passed nor turned the kernel off:\n%s", log)
	}
}
