package csr

import (
	"os"
	"slices"
	"testing"

	"dpr/internal/graph"
)

// FuzzDecodeCSR feeds arbitrary bytes to the DPRZ parser. The
// contract under fuzzing: DecodeBytes either returns an error or a
// graph whose every node decodes cleanly — it never panics, never
// reads out of bounds, and anything it accepts is fully traversable.
func FuzzDecodeCSR(f *testing.F) {
	// Seed with real images so the fuzzer starts past the magic check.
	for _, n := range []int{2, 100, 700} {
		src := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(n, uint64(n)))
		cg, err := FromLinker(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeImage(f, cg))
	}
	f.Add([]byte(fileMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBytes(data)
		if err != nil {
			return
		}
		// Accepted: the graph must be traversable end to end and
		// internally consistent.
		var edges int64
		cur := g.NewCursor()
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			links := g.OutLinks(id)
			if len(links) != g.OutDegree(id) {
				t.Fatalf("node %d: %d links but degree %d", v, len(links), g.OutDegree(id))
			}
			if !slices.Equal(cur.OutLinks(id), links) {
				t.Fatalf("node %d: cursor and generic decode disagree", v)
			}
			prev := graph.NodeID(-1)
			for _, link := range links {
				if link <= prev || int(link) == v || int(link) >= g.NumNodes() {
					t.Fatalf("node %d: accepted image decodes invalid target %d", v, link)
				}
				prev = link
			}
			edges += int64(len(links))
		}
		if edges != g.NumEdges() {
			t.Fatalf("decoded %d edges, header says %d", edges, g.NumEdges())
		}
		// A second cursor reads it backwards and then strided, so every
		// read is a seek: from the block's skip-index entry going down,
		// over a run of other nodes' varints going up.
		seek := g.NewCursor()
		check := func(v int) {
			if !slices.Equal(seek.OutLinks(graph.NodeID(v)), g.OutLinks(graph.NodeID(v))) {
				t.Fatalf("node %d: seeking cursor and generic decode disagree", v)
			}
		}
		for v := g.NumNodes() - 1; v >= 0; v-- {
			check(v)
		}
		for _, step := range []int{3, 7, 67} {
			for v := 0; v < g.NumNodes(); v += step {
				check(v)
			}
		}
	})
}

// encodeImage serializes g to its DPRZ byte image via a temp file.
func encodeImage(f *testing.F, g *Graph) []byte {
	f.Helper()
	path := f.TempDir() + "/seed.dprz"
	if err := g.WriteFile(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
