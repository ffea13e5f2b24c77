package csr

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"dpr/internal/graph"
)

// shapesModel builds the plain graph the access-shape test reads as
// its model: random low-degree nodes, two long degree-0 runs (one
// straddling a block boundary), and a hub in the middle of a block
// whose degree spills the uint16 escape.
func shapesModel(t *testing.T) (model *graph.Graph, hub graph.NodeID) {
	t.Helper()
	const n = degEscape + 4000
	hub = 300*blockNodes + 31
	r := rand.New(rand.NewSource(23))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if v >= 1000 && v < 1200 || v >= 700*blockNodes-5 && v < 700*blockNodes+5 || r.Intn(4) == 0 {
			continue // degree 0
		}
		for e := 1 + r.Intn(5); e > 0; e-- {
			// Mostly near links, a few far ones: one- to six-nibble gaps.
			to := v + r.Intn(33) - 16
			if r.Intn(8) == 0 {
				to = r.Intn(n)
			}
			if to >= 0 && to < n && to != v {
				b.AddEdge(graph.NodeID(v), graph.NodeID(to))
			}
		}
	}
	for to := 0; to < n; to++ {
		if graph.NodeID(to) != hub {
			b.AddEdge(hub, graph.NodeID(to))
		}
	}
	model = b.Build()
	if d := model.OutDegree(hub); d < degEscape {
		t.Fatalf("hub degree %d does not reach the escape", d)
	}
	return model, hub
}

// TestCursorAccessShapes is the cursor's model test: one cursor, never
// reset, reads the access shapes the engines produce back to back and
// must agree with the plain graph on every call, in memory and through
// the mapping.
func TestCursorAccessShapes(t *testing.T) {
	model, hub := shapesModel(t)
	n := model.NumNodes()
	mem, err := FromLinker(model)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shapes.dprz")
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	r := rand.New(rand.NewSource(29))
	type shape struct {
		name string
		seq  []graph.NodeID
	}
	stride := func(from, to, step int) (seq []graph.NodeID) {
		for v := from; v != to && v >= 0 && v < n; v += step {
			seq = append(seq, graph.NodeID(v))
		}
		return seq
	}
	shapes := []shape{
		{"dense ascending", stride(0, n, 1)},
		{"descending", stride(n-1, -1, -1)},
		{"degree-0 runs", slices.Concat(stride(990, 1210, 1), stride(700*blockNodes-8, 700*blockNodes+8, 1), stride(1205, 995, -7))},
		{"escape node mid-block", []graph.NodeID{
			hub, hub + 1, hub - 1, hub + 20, // over the hub's 69k varints in one skip
			hub - 31, hub + 32, hub, hub, hub + 33, hub - 32,
		}},
	}
	for _, k := range []int{2, 3, 8, 63, 64, 65, 200} {
		shapes = append(shapes, shape{"1-in-k ascending", stride(r.Intn(k), n, k)})
	}
	var twice, pingpong, random []graph.NodeID
	for i := 0; i < 2000; i++ {
		v := graph.NodeID(r.Intn(n))
		twice = append(twice, v, v)
		b := r.Intn(n/blockNodes - 1)
		lo, hi := b*blockNodes+r.Intn(blockNodes), (b+1)*blockNodes+r.Intn(blockNodes)
		pingpong = append(pingpong, graph.NodeID(lo), graph.NodeID(hi), graph.NodeID(lo), graph.NodeID(hi+1))
		random = append(random, graph.NodeID(r.Intn(n)))
	}
	shapes = append(shapes, shape{"same node twice", twice}, shape{"cross-block ping-pong", pingpong}, shape{"random", random})

	for _, sub := range []struct {
		name string
		g    *Graph
	}{{"memory", mem}, {"mmap", mapped}} {
		t.Run(sub.name, func(t *testing.T) {
			cur := sub.g.NewCursor()
			for _, sh := range shapes {
				for i, v := range sh.seq {
					if got, want := cur.OutLinks(v), model.OutLinks(v); !slices.Equal(got, want) {
						t.Fatalf("%s: read %d (node %d): %d links, model has %d", sh.name, i, v, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestSkipVarsMatchesNibbleLoop checks the word skipper against the
// nibble loop from every varint boundary of a short stream — both start
// parities, every count, and every distance to the tail, so each start
// crosses from word loads into the fallback at a different point.
func TestSkipVarsMatchesNibbleLoop(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var enc Encoder
	starts := []int64{0}
	for i := 0; i < 90; i++ {
		enc.putVar(uint64(r.Int63()) >> uint(63-3*(1+r.Intn(7)))) // 1 to 7 nibbles
		starts = append(starts, enc.nib)
	}
	// Cut the stream at every length that still ends on a varint, so
	// the last full word sits at every offset from the tail; a clipped
	// slice turns a load past the end into a panic.
	parity := [2]int{}
	for tail := len(starts) - 1; tail > 0; tail-- {
		data := slices.Clip(enc.payload[:(starts[tail]+1)/2])
		for s := 0; s <= tail; s++ {
			parity[starts[s]&1]++
			for count := 0; s+count <= tail; count++ {
				want := starts[s+count]
				if got := skipNibVars(data, starts[s], count); got != want {
					t.Fatalf("skipNibVars(%d nibbles, %d, %d) = %d, want %d", starts[tail], starts[s], count, got, want)
				}
				if got := skipVars(data, starts[s], count); got != want {
					t.Fatalf("skipVars(%d nibbles, %d, %d) = %d, want %d", starts[tail], starts[s], count, got, want)
				}
			}
		}
	}
	if parity[0] == 0 || parity[1] == 0 {
		t.Fatalf("start parities not both covered: %v", parity)
	}
}

// TestMappedPayloadTailExact reads a file-backed graph whose last
// node's varints end on the file's last byte: the payload is a
// read-only mapping there, and neither read path may load a word that
// reaches past it.
func TestMappedPayloadTailExact(t *testing.T) {
	const n = 3*blockNodes + 40
	var model *graph.Graph
	var g *Graph
	for extra := 0; g == nil; extra++ {
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
			b.AddEdge(graph.NodeID(v), graph.NodeID((v*7+3)%n))
		}
		for e := 0; e < extra; e++ {
			b.AddEdge(n-1, graph.NodeID(e))
		}
		model = b.Build()
		cg, err := FromLinker(model)
		if err != nil {
			t.Fatal(err)
		}
		if cg.blockOff[numBlocks(n)]&1 == 0 { // no padding nibble
			g = cg
		}
	}
	path := filepath.Join(t.TempDir(), "tail.dprz")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if end := mapped.blockOff[numBlocks(n)]; end != 2*int64(len(mapped.payload)) {
		t.Fatalf("payload of %d bytes ends at nibble %d: the last byte is padded", len(mapped.payload), end)
	}
	// Every node of the last block, reached by a skip from the block's
	// start (generic path) and from every earlier node in it, so word
	// loads begin at every byte offset from the tail.
	for v := graph.NodeID(3 * blockNodes); v < n; v++ {
		want := model.OutLinks(v)
		if got := mapped.OutLinks(v); !slices.Equal(got, want) {
			t.Fatalf("node %d: generic read %v, want %v", v, got, want)
		}
		for u := graph.NodeID(3 * blockNodes); u < v; u++ {
			cur := mapped.NewCursor()
			cur.OutLinks(u)
			if got := cur.OutLinks(v); !slices.Equal(got, want) {
				t.Fatalf("node %d after node %d: cursor read %v, want %v", v, u, got, want)
			}
		}
	}
}

// TestCursorSparseSweepAllocsNothing pins the cursor's steady state:
// once its buffer fits the heaviest node, a sweep allocates nothing.
func TestCursorSparseSweepAllocsNothing(t *testing.T) {
	g, _, err := Generate(graph.DefaultPowerLawConfig(20000, 9))
	if err != nil {
		t.Fatal(err)
	}
	cur := g.NewCursor()
	sweep := func(step int) {
		for v := 0; v < g.NumNodes(); v += step {
			cur.OutLinks(graph.NodeID(v))
		}
	}
	sweep(1) // warm: grow the buffer to the heaviest node
	if allocs := testing.AllocsPerRun(5, func() { sweep(8) }); allocs != 0 {
		t.Fatalf("warm sparse sweep allocates %.1f times per sweep, want 0", allocs)
	}
}
