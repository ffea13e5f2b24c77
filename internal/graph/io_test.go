package graph

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		la, lb := a.OutLinks(NodeID(v)), b.OutLinks(NodeID(v))
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	g := MustGeneratePowerLaw(DefaultPowerLawConfig(500, 3))
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, got) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	g := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatal("empty graph round trip mismatch")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	for _, input := range []string{"", "XXXX", "DPRG", "DPRGgarbage"} {
		if _, err := ReadBinary(strings.NewReader(input)); err == nil {
			t.Errorf("ReadBinary accepted %q", input)
		}
	}
}

func TestReadBinaryRejectsTruncated(t *testing.T) {
	g := Cycle(10)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 20, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}

// TestWriteEdgeList: the "# nodes N" header, then one "src dst" line
// per link in source order, each source's targets ascending.
func TestWriteEdgeList(t *testing.T) {
	var buf bytes.Buffer
	if err := FromAdjacency([][]NodeID{{2, 1}, {2}, {}, {0}}).WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# nodes 4\n0 1\n0 2\n1 2\n3 0\n"; got != want {
		t.Fatalf("edge list %q, want %q", got, want)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := MustGeneratePowerLaw(DefaultPowerLawConfig(300, 9))
	path := filepath.Join(t.TempDir(), "g.dprg")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, got) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadBinary(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading missing file succeeded")
	}
}
