package wire

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// assertNoGoroutineLeaks is a hand-rolled goleak: it snapshots the
// goroutine count when called and returns a cleanup that fails the
// test if, after a grace period for asynchronous teardown, more
// goroutines are running than before. Call it first thing and defer
// the result:
//
//	defer assertNoGoroutineLeaks(t)()
//
// Cluster.Close/Kill are supposed to reap every acceptor, server,
// sender, ack-reader, processing-loop and failure-detector goroutine;
// this catches any that escape.
func assertNoGoroutineLeaks(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var after int
		for {
			runtime.Gosched()
			after = runtime.NumGoroutine()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			// Only fail on goroutines parked inside this package's
			// worker types; the runtime, the test framework and other
			// packages' helpers own the rest.
			var leaked []string
			for _, g := range strings.Split(string(buf[:n]), "\n\n") {
				for _, worker := range []string{
					"wire.(*Peer)", "wire.(*sender)", "wire.(*Cluster)",
					"wire.(*detector)", "telemetry.(*DebugServer)",
				} {
					if strings.Contains(g, worker) {
						leaked = append(leaked, g)
						break
					}
				}
			}
			if len(leaked) > 0 {
				t.Errorf("goroutine leak: %d before, %d after, %d wire workers still running\n%s",
					before, after, len(leaked), strings.Join(leaked, "\n\n"))
			}
		}
	}
}
