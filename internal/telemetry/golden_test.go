package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenRegistry builds the fixed registry both golden tests render:
// one instrument of every kind with hand-picked values, so the
// exposition format and the JSON schema are pinned byte-for-byte.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("wire_sent").Add(12)
	r.Counter("cluster_probes").Add(3)
	r.Counter("wire_evictions_quorum").Add(1)
	r.Counter("wire_evictions_refused").Add(2)
	r.Counter("wire_epoch_rejected").Add(1)
	r.Counter("wire_credit_stalls").Add(4)
	r.Counter("wire_shed_coalesced").Add(96)
	r.Counter("wire_slow_peer").Add(1)
	r.FloatCounter("wire_delta_shipped").Add(1.25)
	r.Gauge("wire_rank_mass").Set(150.5)
	r.Gauge("wire_inbox_occupancy").Set(12)
	r.Gauge("wire_unacked_frames").Set(3)
	r.Gauge("wire_send_latency_ewma_seconds").Set(0.0125)
	h := r.Histogram("pass_residual", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.05, 0.05, 2} {
		h.Observe(v)
	}
	lat := r.Histogram("wire_send_latency_seconds", ExpBuckets(100e-6, 4, 8))
	for _, v := range []float64{0.0002, 0.004, 0.004, 0.3} {
		lat.Observe(v)
	}
	return r
}

func goldenTrace() *Trace {
	tr := NewTrace(16)
	var ns int64 = 1000
	tr.SetClock(func() int64 { ns += 500; return ns })
	tr.Record(EvPassStart, -1, 1, 0, 42)
	tr.Record(EvShip, 0, -1, 1.25, 3)
	tr.Record(EvFold, 1, -1, 1.25, 3)
	tr.Record(EvSuspect, 2, -1, 0, 4)
	tr.Record(EvEvictRefused, 4, -1, 2, 0)
	tr.Record(EvEpochReject, 1, -1, 7, 3)
	tr.Record(EvRelax, -1, -1, 0.25, 1200)
	tr.Record(EvPassEnd, -1, 1, 0.05, 0)
	return tr
}

// compareGolden checks got against testdata/<name>, rewriting the file
// instead when UPDATE_GOLDEN=1 is set.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (rerun with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestMetricsExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "metrics.golden", buf.Bytes())
}

func TestTraceJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteTraceJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "trace.golden.json", buf.Bytes())
}

// The /trace document's schema is a wire contract: fixed key set,
// stable event-type names, events oldest first.
func TestTraceJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteTraceJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	for _, key := range []string{"len", "cap", "events"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("trace document missing %q: %s", key, buf.String())
		}
	}
	events, ok := doc["events"].([]any)
	if !ok || len(events) != 8 {
		t.Fatalf("events = %v", doc["events"])
	}
	first, ok := events[0].(map[string]any)
	if !ok {
		t.Fatalf("event 0 = %v", events[0])
	}
	for _, key := range []string{"seq", "t_ns", "type", "peer", "pass", "value", "aux"} {
		if _, present := first[key]; !present {
			t.Fatalf("event missing %q: %v", key, first)
		}
	}
	if first["type"] != "pass_start" {
		t.Fatalf("first event type = %v, want pass_start", first["type"])
	}
}

// The rendered exposition must parse line-by-line: every non-comment
// line is "name value", every # line is a TYPE comment, and the
// cumulative bucket counts never decrease.
func TestExpositionParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	prevBucket := uint64(0)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE comment: %q", line)
			}
			kind := parts[3]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("unknown instrument kind in %q", line)
			}
			prevBucket = 0
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		if strings.Contains(fields[0], "_bucket{") {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if v < prevBucket {
				t.Fatalf("cumulative bucket decreased at %q", line)
			}
			prevBucket = v
		}
	}
}
