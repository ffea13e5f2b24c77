package main

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dpr/internal/telemetry"
)

// fakeCluster stands in for *wire.Cluster: the test moves its
// processed count and it logs the membership calls it receives along
// with the count they arrived at.
type fakeCluster struct {
	mu        sync.Mutex
	sent      uint64
	processed uint64
	calls     []string
	at        []uint64
	failJoin  bool
}

func (f *fakeCluster) set(sent, processed uint64) {
	f.mu.Lock()
	f.sent, f.processed = sent, processed
	f.mu.Unlock()
}

func (f *fakeCluster) log(call string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, call)
	f.at = append(f.at, f.processed)
	return nil
}

func (f *fakeCluster) DebugCounters() (uint64, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent, f.processed
}
func (f *fakeCluster) TelemetrySnapshot() telemetry.Snapshot {
	return telemetry.Snapshot{Gauges: []telemetry.GaugePoint{{Name: "wire_inbox_occupancy", Value: 3}}}
}
func (f *fakeCluster) Join() (int, error) {
	if f.failJoin {
		return -1, errors.New("no room")
	}
	return 8, f.log("join")
}

// testScript is a four-event script over the fake: three markers at 2,
// 4 and 5 updates per document, then the real script's join at 6.
func testScript(f *fakeCluster, docs int) []faultEvent {
	d := uint64(docs)
	mark := func(name string) func(clusterControl) error {
		return func(clusterControl) error { return f.log(name) }
	}
	script := []faultEvent{{"a", 2 * d, mark("a")}, {"b", 4 * d, mark("b")}, {"c", 5 * d, mark("c")}}
	return append(script, faultScript(docs)...)
}

// waitFor polls cond, which reads state the watcher goroutine writes
// only through the fake's mutex.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fakeCluster) numCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// The script fires on progress alone: nothing below the first
// threshold, each event once its threshold is reached, in order, even
// when one poll jumps several thresholds.
func TestFaultScriptFollowsProgress(t *testing.T) {
	const docs = 100
	f := &fakeCluster{}
	w := newWatcher(f, testScript(f, docs), false, nil)
	w.start()

	f.set(250, 199)
	time.Sleep(20 * pollEvery)
	if n := f.numCalls(); n != 0 {
		t.Fatalf("%d events fired below the first threshold", n)
	}
	f.set(300, 200)
	waitFor(t, "the first event", func() bool { return f.numCalls() == 1 })
	time.Sleep(20 * pollEvery)
	if n := f.numCalls(); n != 1 {
		t.Fatalf("%d events fired at 2 updates per document, want only the first", n)
	}
	f.set(2200, 2200) // past every remaining threshold at once
	waitFor(t, "the rest of the script", func() bool { return f.numCalls() == 4 })
	w.wait()

	if want := []string{"a", "b", "c", "join"}; !reflect.DeepEqual(f.calls, want) {
		t.Errorf("calls = %v, want %v", f.calls, want)
	}
	if want := []uint64{200, 2200, 2200, 2200}; !reflect.DeepEqual(f.at, want) {
		t.Errorf("fired at processed = %v, want %v", f.at, want)
	}
	if w.fired != 4 || w.err != nil {
		t.Errorf("fired = %d, err = %v; want 4, nil", w.fired, w.err)
	}
	for _, name := range []string{"a", "b", "c", "join"} {
		if _, ok := w.eventMs[name]; !ok {
			t.Errorf("no duration recorded for %s", name)
		}
	}
}

// A failing action stops the script and is reported; an unfinished
// script is visible as fired < len(script).
func TestFaultScriptReportsFailure(t *testing.T) {
	f := &fakeCluster{failJoin: true}
	w := newWatcher(f, testScript(f, 10), false, nil)
	w.start()
	f.set(1000, 1000)
	waitFor(t, "three events", func() bool { return f.numCalls() == 3 })
	time.Sleep(20 * pollEvery)
	w.wait()
	if w.err == nil || w.fired != 3 {
		t.Errorf("fired = %d, err = %v; want 3 and the join error", w.fired, w.err)
	}
}

// A traced watcher notes the first poll of the final quiet stretch and
// keeps gauge peaks.
func TestWatcherQuiesceLag(t *testing.T) {
	f := &fakeCluster{}
	w := newWatcher(f, nil, true, newTracer())
	w.start()
	f.set(50, 50) // a quiet moment that does not last
	time.Sleep(20 * pollEvery)
	f.set(90, 70)
	time.Sleep(20 * pollEvery)
	f.set(90, 90)
	quiet := time.Now()
	time.Sleep(50 * pollEvery)
	end := time.Now()
	w.wait()

	lag := w.quiesceLag(end, 90)
	if lag <= 0 || lag > end.Sub(quiet)+5*pollEvery {
		t.Errorf("quiesceLag = %v, want within (0, %v]", lag, end.Sub(quiet)+5*pollEvery)
	}
	if got := w.quiesceLag(end, 91); got != 0 {
		t.Errorf("quiesceLag for a total the watcher never saw = %v, want 0", got)
	}
	if w.inboxPeak != 3 || len(w.snapshotMs) == 0 {
		t.Errorf("inboxPeak = %v with %d snapshots, want 3 and at least one", w.inboxPeak, len(w.snapshotMs))
	}
}
