package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

const (
	checkpointMagic   = "DPRC"
	checkpointVersion = 2
	checkpointHeader  = len(checkpointMagic) + 4*8
)

// WriteCheckpoint persists the document state so a restart resumes from
// the last fixed point: magic, u64 words (version, documents, damping,
// epsilon), then p2p row lists — documents 0..n-1 with rank, accumulator
// (undelivered incoming mass folded in) and last-pushed value, and the
// uninitialized, removed and dirty documents with no columns.
func (e *PassEngine) WriteCheckpoint(w io.Writer) error {
	n := e.st.g.NumNodes()
	b := []byte(checkpointMagic)
	for _, v := range []uint64{checkpointVersion, uint64(n), math.Float64bits(e.st.opt.Damping), math.Float64bits(e.st.opt.Epsilon)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	docs, acc := make([]graph.NodeID, n), make([]float64, n)
	var sets [3][]graph.NodeID
	for d := range docs {
		docs[d], acc[d] = graph.NodeID(d), e.st.acc[d]+e.incoming[d]
		for i, in := range [3]bool{!e.initialized[d], e.removed[d], e.dirty[d]} {
			if in {
				sets[i] = append(sets[i], graph.NodeID(d))
			}
		}
	}
	b = p2p.EncodeRows(b, docs, e.st.rank[:n], acc, e.st.last[:n])
	for _, set := range sets {
		b = p2p.EncodeRows(b, set)
	}
	_, err := w.Write(b)
	return err
}

// RestoreCheckpoint loads a checkpoint over a graph of the same size and
// damping (a tighter epsilon resumes refinement). The whole file is
// parsed before anything is installed: a refused one changes nothing.
func (e *PassEngine) RestoreCheckpoint(r io.Reader) error {
	b, err := io.ReadAll(r)
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[len(checkpointMagic)+8*i:]) }
	n := e.st.g.NumNodes()
	switch {
	case err != nil:
		return fmt.Errorf("core: reading checkpoint: %w", err)
	case len(b) < checkpointHeader || string(b[:len(checkpointMagic)]) != checkpointMagic:
		return fmt.Errorf("core: not a DPRC checkpoint, or its header is cut short")
	case word(0) != checkpointVersion:
		return fmt.Errorf("core: unsupported checkpoint version %d (this is version %d)", word(0), checkpointVersion)
	case word(1) != uint64(n):
		return fmt.Errorf("core: checkpoint has %d documents, graph has %d", word(1), n)
	case math.Float64frombits(word(2)) != e.st.opt.Damping:
		return fmt.Errorf("core: checkpoint damping %v != engine damping %v", math.Float64frombits(word(2)), e.st.opt.Damping)
	}
	docs, cols, b, err := p2p.DecodeRows(b[checkpointHeader:], 3)
	lists := [4][]graph.NodeID{docs} // the rows', then the uninitialized, removed and dirty documents
	for i := 1; i < len(lists) && err == nil; i++ {
		lists[i], _, b, err = p2p.DecodeRows(b, 0)
	}
	if err != nil || len(b) != 0 || len(docs) != n {
		return fmt.Errorf("core: checkpoint body cut short, corrupt or too long (%d rows, %d bytes left)", len(docs), len(b))
	}
	var flags [4][]bool
	for i, list := range lists {
		flags[i] = make([]bool, n)
		for j, d := range list {
			if uint32(d) >= uint32(n) || flags[i][d] || i == 0 && d != graph.NodeID(j) {
				return fmt.Errorf("core: checkpoint list %d names document %d at %d, or again", i, d, j)
			}
			flags[i][d] = true
		}
	}
	copy(e.st.rank, cols[0])
	copy(e.st.acc, cols[1])
	copy(e.st.last, cols[2])
	clear(e.incoming[:n])
	for s := range e.dirtyShard {
		e.dirtyShard[s] = e.dirtyShard[s][:0]
	}
	e.uninitialized = len(lists[1])
	for d := range n {
		e.initialized[d], e.removed[d], e.dirty[d] = !flags[1][d], flags[2][d], flags[3][d]
		if e.dirty[d] {
			e.dirtyShard[d>>e.shardShift] = append(e.dirtyShard[d>>e.shardShift], graph.NodeID(d))
		}
	}
	return nil
}
