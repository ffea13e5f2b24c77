package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func startDebug(t *testing.T, reg *Registry, tr *Trace) *DebugServer {
	t.Helper()
	d, err := ServeDebug("127.0.0.1:0", reg.Snapshot, tr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := goldenRegistry()
	tr := goldenTrace()
	d := startDebug(t, reg, tr)
	defer d.Close()
	base := "http://" + d.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "wire_sent 12") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	// /metrics is live: mutate and re-scrape.
	reg.Counter("wire_sent").Add(1)
	_, body, _ = get(t, base+"/metrics")
	if !strings.Contains(body, "wire_sent 13") {
		t.Fatalf("/metrics not live:\n%s", body)
	}

	code, body, hdr = get(t, base+"/trace")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/trace status %d content type %q", code, hdr.Get("Content-Type"))
	}
	var doc struct {
		Len    int               `json:"len"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace JSON: %v", err)
	}
	if doc.Len != 8 || len(doc.Events) != 8 {
		t.Fatalf("/trace doc = %+v", doc)
	}

	// ?n= limits the event count.
	_, body, _ = get(t, base+"/trace?n=2")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 2 {
		t.Fatalf("/trace?n=2 returned %d events", len(doc.Events))
	}

	code, body, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index status %d:\n%.200s", code, body)
	}
}

func TestDebugServerNilTrace(t *testing.T) {
	d := startDebug(t, NewRegistry(), nil)
	defer d.Close()
	_, body, _ := get(t, "http://"+d.Addr()+"/trace")
	var doc struct {
		Len    int   `json:"len"`
		Cap    int   `json:"cap"`
		Events []any `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("nil-trace document: %v (%q)", err, body)
	}
	if doc.Len != 0 || doc.Cap != 0 || len(doc.Events) != 0 {
		t.Fatalf("nil-trace document = %+v", doc)
	}
}

func TestDebugServerCloseIdempotent(t *testing.T) {
	d := startDebug(t, NewRegistry(), nil)
	d.Close()
	d.Close() // must not panic or hang
}

// Closing the server must reap its serve goroutine; concurrent scrapes
// while instruments mutate must be race-clean (run under -race in ci).
func TestDebugServerNoLeakUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry()
	c := reg.Counter("n")
	d := startDebug(t, reg, NewTrace(64))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c.Add(1)
				resp, err := http.Get("http://" + d.Addr() + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	d.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	if strings.Contains(string(buf[:n]), "telemetry.(*DebugServer).serve") {
		t.Fatalf("DebugServer.serve leaked after Close:\n%s", buf[:n])
	}
}
