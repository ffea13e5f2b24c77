package p2p

import (
	"testing"

	"dpr/internal/graph"
)

func TestCachedRouterFirstRouteThenDirect(t *testing.T) {
	r, err := NewCachedRouter(64, true)
	if err != nil {
		t.Fatal(err)
	}
	first := r.Hops(3, 1000)
	if first < 1 {
		t.Fatalf("first hops = %d", first)
	}
	for i := 0; i < 5; i++ {
		if h := r.Hops(3, 1000); h != 1 {
			t.Fatalf("cached send %d cost %d hops", i, h)
		}
	}
}

func TestCachedRouterDisabledAlwaysRoutes(t *testing.T) {
	enabled, err := NewCachedRouter(64, true)
	if err != nil {
		t.Fatal(err)
	}
	disabled, err := NewCachedRouter(64, false)
	if err != nil {
		t.Fatal(err)
	}
	var hopsOn, hopsOff int
	for i := 0; i < 50; i++ {
		hopsOn += enabled.Hops(0, graph.NodeID(7))
		hopsOff += disabled.Hops(0, graph.NodeID(7))
	}
	if hopsOn >= hopsOff {
		t.Fatalf("caching did not reduce hops: %d vs %d", hopsOn, hopsOff)
	}
}

func TestDirectRouter(t *testing.T) {
	var r DirectRouter
	if r.Hops(0, 5) != 1 {
		t.Fatal("direct router must cost one hop")
	}
}

func TestNewCachedRouterValidation(t *testing.T) {
	if _, err := NewCachedRouter(0, true); err == nil {
		t.Fatal("accepted zero peers")
	}
}

func TestCountersHopsPerMessage(t *testing.T) {
	c := &Counters{InterPeerMsgs: 10, RoutedHops: 35}
	if got := c.HopsPerMessage(); got != 3.5 {
		t.Fatalf("HopsPerMessage = %v", got)
	}
	if (&Counters{}).HopsPerMessage() != 0 {
		t.Fatal("empty counters should report 0 hops/msg")
	}
}
