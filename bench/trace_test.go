package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// run [0,100) holds a [10,40) and b [30,60), which overlap, and
	// c [70,80); a holds a1 [15,25).
	tr := &tracer{spans: []span{
		{ID: 0, Parent: noSpan, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60},
		{ID: 3, Parent: 0, Name: "a", StartNs: 70, EndNs: 80},
		{ID: 4, Parent: 1, Name: "leaf", StartNs: 15, EndNs: 25},
	}}
	want := map[string]selfTime{
		"run":  {Name: "run", Calls: 1, Total: 100, Self: 40}, // children cover [10,60) and [70,80)
		"a":    {Name: "a", Calls: 2, Total: 40, Self: 30},
		"b":    {Name: "b", Calls: 1, Total: 30, Self: 30},
		"leaf": {Name: "leaf", Calls: 1, Total: 10, Self: 10},
	}
	got := tr.selfTimes()
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d: %+v", len(got), len(want), got)
	}
	for _, st := range got {
		if st != want[st.Name] {
			t.Errorf("%s: got %+v, want %+v", st.Name, st, want[st.Name])
		}
	}
}

func TestTimedWithAndWithoutTracer(t *testing.T) {
	var off *tracer
	ran := false
	if d := off.timed("x", noSpan, func(id int) { ran = id == noSpan }); d < 0 || !ran {
		t.Errorf("nil tracer: d=%v ran=%t", d, ran)
	}
	on := newTracer()
	root := on.begin("root", noSpan)
	on.timed("child", root, func(id int) {
		on.timed("grandchild", id, func(int) { time.Sleep(time.Millisecond) })
	})
	on.end(root)
	if len(on.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(on.spans))
	}
	for i, wantParent := range []int{noSpan, 0, 1} {
		s := on.spans[i]
		if s.Parent != wantParent || s.EndNs < s.StartNs {
			t.Errorf("span %d: %+v, want parent %d and end >= start", i, s, wantParent)
		}
	}
	if g := on.spans[2]; g.EndNs-g.StartNs < int64(time.Millisecond) {
		t.Errorf("grandchild lasted %dns, slept 1ms", g.EndNs-g.StartNs)
	}
}
