package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"dpr/internal/rng"
)

func TestNewMutableCopies(t *testing.T) {
	g := MustGeneratePowerLaw(DefaultPowerLawConfig(300, 141))
	m := NewMutable(g)
	if m.NumNodes() != g.NumNodes() {
		t.Fatalf("nodes: %d vs %d", m.NumNodes(), g.NumNodes())
	}
	for v := 0; v < g.NumNodes(); v++ {
		a, b := g.OutLinks(NodeID(v)), m.OutLinks(NodeID(v))
		if len(a) != len(b) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d link %d differs", v, i)
			}
		}
	}
	// Mutating the copy leaves the original untouched.
	last := NodeID(g.NumNodes() - 1)
	before := slices.Clone(g.OutLinks(0))
	if err := m.SetOutLinks(0, append(slices.Clone(m.OutLinks(0)), last)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.OutLinks(0), before) || !slices.Contains(m.OutLinks(0), last) {
		t.Fatalf("copy %v, original %v (was %v)", m.OutLinks(0), g.OutLinks(0), before)
	}
	if NewMutable(nil).NumNodes() != 0 {
		t.Fatal("nil graph should yield empty mutable")
	}
}

func TestMutableAddNode(t *testing.T) {
	m := NewMutable(Cycle(3))
	if err := m.SetOutLinks(3, []NodeID{2, 0, 2}); err != nil { // duplicate deduped
		t.Fatal(err)
	}
	if m.NumNodes() != 4 {
		t.Fatalf("nodes=%d", m.NumNodes())
	}
	if got := m.OutLinks(3); !slices.Equal(got, []NodeID{0, 2}) {
		t.Fatalf("links = %v, want [0 2] (deduplicated, ascending)", got)
	}
	if err := m.SetOutLinks(4, []NodeID{99}); err == nil {
		t.Fatal("accepted out-of-range link")
	}
	if err := m.SetOutLinks(4, []NodeID{4}); err == nil {
		t.Fatal("accepted self-link (new node's own id)")
	}
	if err := m.SetOutLinks(5, nil); err == nil {
		t.Fatal("appended past the next id")
	}
	if m.NumNodes() != 4 {
		t.Fatalf("refused appends left %d nodes, want 4", m.NumNodes())
	}
}

func TestMutableAddRemoveLink(t *testing.T) {
	m := NewMutable(Cycle(4))
	kept := m.OutLinks(0)
	if err := m.SetOutLinks(0, []NodeID{2, 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.OutLinks(0); !slices.Equal(got, []NodeID{1, 2}) {
		t.Fatalf("links = %v, want [1 2]", got)
	}
	if !slices.Equal(kept, []NodeID{1}) {
		t.Fatalf("a list read before the edit changed to %v", kept)
	}
	if err := m.SetOutLinks(0, []NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if m.OutDegree(0) != 1 {
		t.Fatalf("degree = %d", m.OutDegree(0))
	}
	if err := m.SetOutLinks(0, []NodeID{0, 1}); err == nil {
		t.Fatal("accepted self-link")
	}
	if err := m.SetOutLinks(0, []NodeID{-1}); err == nil {
		t.Fatal("accepted negative target")
	}
	if err := m.SetOutLinks(99, nil); err == nil {
		t.Fatal("accepted bad source")
	}
	if err := m.SetOutLinks(-1, nil); err == nil {
		t.Fatal("accepted negative source")
	}
	if got := m.OutLinks(0); !slices.Equal(got, []NodeID{1}) {
		t.Fatalf("refused edits changed the links to %v", got)
	}
}

func TestMutableSnapshot(t *testing.T) {
	m := NewMutable(Cycle(3))
	if err := m.SetOutLinks(3, []NodeID{0}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetOutLinks(1, []NodeID{2, 0}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.NumNodes() != 4 {
		t.Fatalf("snapshot nodes = %d", snap.NumNodes())
	}
	if snap.NumEdges() != 5 {
		t.Fatalf("snapshot edges = %d", snap.NumEdges())
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: a Mutable built by replaying random appends, link
// additions and link removals always matches its own Snapshot list for
// list, and every list stays ascending without duplicates.
func TestMutableSnapshotProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := NewMutable(Cycle(3))
		for op := 0; op < 40; op++ {
			n := m.NumNodes()
			var v NodeID
			var links []NodeID
			switch r.Intn(3) {
			case 0:
				v, links = NodeID(n), []NodeID{NodeID(r.Intn(n))}
			case 1:
				from, to := NodeID(r.Intn(n)), NodeID(r.Intn(n))
				if from == to {
					continue
				}
				v, links = from, append(slices.Clone(m.OutLinks(from)), to)
			case 2:
				v = NodeID(r.Intn(n))
				if m.OutDegree(v) == 0 {
					continue
				}
				i := r.Intn(m.OutDegree(v))
				links = slices.Delete(slices.Clone(m.OutLinks(v)), i, i+1)
			}
			if err := m.SetOutLinks(v, links); err != nil {
				return false
			}
		}
		snap := m.Snapshot()
		if snap.Validate() != nil || snap.NumNodes() != m.NumNodes() {
			return false
		}
		for v := 0; v < m.NumNodes(); v++ {
			links := m.OutLinks(NodeID(v))
			if !slices.Equal(snap.OutLinks(NodeID(v)), links) || !slices.IsSorted(links) || len(slices.Compact(slices.Clone(links))) != len(links) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
