package wire

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dpr/internal/graph"
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
// sender, processing-loop and failure-detector goroutine;
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

// TestOneGoroutinePerOutboundStream: a stream's sender writes its frame
// and reads the reply on the same goroutine, so once a cluster quiesces
// every entry in a peer's senders is exactly one goroutine in a sender
// method, its loop, with no second one reading acks beside it.
func TestOneGoroutinePerOutboundStream(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 31))
	c, err := NewCluster(g, ClusterConfig{Peers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slots, _ := c.table()
	for _, s := range slots {
		s.peer.Start()
	}
	waitCounter(t, 30*time.Second, "the cluster to quiesce", func() bool {
		sent, processed := c.DebugCounters()
		return sent > 0 && sent == processed && c.TelemetrySnapshot().GaugeValue("wire_unacked_frames") == 0
	})
	streams := 0
	for _, s := range slots {
		s.peer.sendMu.Lock()
		streams += len(s.peer.senders)
		s.peer.sendMu.Unlock()
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	inSender := 0
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(stack, "wire.(*sender)") {
			inSender++
		}
	}
	if streams == 0 || inSender != streams {
		t.Fatalf("%d goroutines in sender methods for %d outbound streams, want one each", inSender, streams)
	}
}
