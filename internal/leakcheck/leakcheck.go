// Package leakcheck fails a test that leaves goroutines behind. The
// resilience layer is made of background loops — per-connection
// serving goroutines, the expiry reaper, pump readers — and every one
// of them has a documented stop condition;
// this helper makes "did it actually stop" an assertion instead of a
// hope. Usage:
//
//	func TestServer(t *testing.T) {
//		defer leakcheck.Check(t)()
//		...
//	}
//
// or leakcheck.At(t) as a t.Cleanup variant.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleTimeout bounds how long Check waits for goroutine counts to
// fall back to the baseline. Goroutines legitimately take a moment to
// unwind after Close/Shutdown returns (deferred cleanups, channel
// drains), so the check polls instead of snapshotting once.
const settleTimeout = 2 * time.Second

// Check snapshots the goroutine count and returns a function that
// fails t if, after settleTimeout, more goroutines are running than at
// the snapshot. The returned func is designed for defer.
func Check(t testing.TB) func() {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settleTimeout)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutines before test, %d after:\n%s",
			before, now, stacks())
	}
}

// At registers Check as a t.Cleanup, for tests that prefer not to
// manage the defer themselves.
func At(t testing.TB) {
	t.Cleanup(Check(t))
}

// stacks dumps every goroutine's stack, trimmed to keep test output
// readable: the testing machinery's own goroutines are expected and
// filtered out.
func stacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var keep []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "testing.(*T).Run") ||
			strings.Contains(g, "testing.Main") ||
			strings.Contains(g, "runtime.goexit") && strings.Count(g, "\n") <= 2 ||
			strings.Contains(g, "leakcheck.stacks") {
			continue
		}
		keep = append(keep, g)
	}
	if len(keep) == 0 {
		return "(only runtime/testing goroutines remain)"
	}
	return fmt.Sprintf("%d suspect goroutines:\n%s", len(keep), strings.Join(keep, "\n\n"))
}
