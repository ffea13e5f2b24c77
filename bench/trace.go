package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Parent is the id
// of the span that was open around it, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil *tracer is the tracing-off state: timed still times the call, it
// just records nothing, so every layer call is written once and works
// in both modes.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex // the fault script calls into wire from its own goroutine
	spans []span
}

// spanRoom is the span capacity reserved up front: a traced run makes
// a few hundred layer calls plus one per pass.
const spanRoom = 1 << 14

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, spanRoom)}
}

// noSpan is the parent of a root span.
const noSpan = -1

// begin opens a span and returns its id (noSpan when tracing is off).
// begin and end allocate nothing once the span slice has room, so they
// can sit inside a loop whose allocations are being counted.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// timed runs f and returns how long it took; when tracing it also
// records the call as a span named name under parent. f receives its
// own span id so it can parent the calls it makes.
func (t *tracer) timed(name string, parent int, f func(id int)) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	f(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTime is a span name's total duration and the part of it not
// covered by child spans.
type selfTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

// selfTimes aggregates by span name, largest self time first. A
// span's self time is its duration minus the part of its interval its
// direct children cover; children that overlap each other (a
// membership call made from the fault script while Run is open) are
// counted once.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.EndNs - s.StartNs
		st.Calls++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	edge := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, edge), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
