package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dpr/internal/graph"
)

// Checkpointing lets a long-lived network persist its converged state:
// the paper's motivation is *continuously accurate* pageranks, so a
// peer restarting should resume from the last fixed point instead of
// recomputing from scratch. A checkpoint captures every document's
// rank, accumulator, last-pushed value and liveness; restoring into an
// engine over the same graph resumes exactly where the computation
// left off (pending un-pushed deltas included).

const (
	checkpointMagic   = "DPRC"
	checkpointVersion = 1
)

// WriteCheckpoint serializes the engine's document state. The engine
// should be quiescent (between passes); mid-pass incoming mass is
// folded into the accumulators so nothing is lost.
func (e *PassEngine) WriteCheckpoint(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	n := e.st.g.NumNodes()
	hdr := []uint64{checkpointVersion, uint64(n), math.Float64bits(e.st.opt.Damping),
		math.Float64bits(e.st.opt.Epsilon)}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for d := 0; d < n; d++ {
		// Fold any undelivered incoming mass so the checkpoint is
		// self-contained.
		acc := e.st.acc[d] + e.incoming[d]
		var flags uint8
		if e.initialized[d] {
			flags |= 1
		}
		if e.removed[d] {
			flags |= 2
		}
		if e.dirty[d] {
			flags |= 4
		}
		fields := []uint64{
			math.Float64bits(e.st.rank[d]),
			math.Float64bits(acc),
			math.Float64bits(e.st.last[d]),
		}
		for _, v := range fields {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreCheckpoint loads state written by WriteCheckpoint into this
// engine. The engine must be over a graph with the same node count;
// damping must match (epsilon may differ — tightening the threshold
// on a restored state resumes refinement, which is the expected
// workflow).
func (e *PassEngine) RestoreCheckpoint(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	var version, n, dampingBits, epsBits uint64
	for _, p := range []*uint64{&version, &n, &dampingBits, &epsBits} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return fmt.Errorf("core: reading checkpoint header: %w", err)
		}
	}
	if version != checkpointVersion {
		return fmt.Errorf("core: unsupported checkpoint version %d", version)
	}
	if int(n) != e.st.g.NumNodes() {
		return fmt.Errorf("core: checkpoint has %d documents, graph has %d", n, e.st.g.NumNodes())
	}
	if d := math.Float64frombits(dampingBits); d != e.st.opt.Damping {
		return fmt.Errorf("core: checkpoint damping %v != engine damping %v", d, e.st.opt.Damping)
	}
	for s := range e.dirtyShard {
		e.dirtyShard[s] = e.dirtyShard[s][:0]
	}
	e.uninitialized = 0
	buf := make([]byte, 25)
	for d := 0; d < int(n); d++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("core: reading checkpoint document %d: %w", d, err)
		}
		e.st.rank[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[0:]))
		e.st.acc[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		e.st.last[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
		flags := buf[24]
		e.initialized[d] = flags&1 != 0
		e.removed[d] = flags&2 != 0
		e.incoming[d] = 0
		e.dirty[d] = flags&4 != 0
		if e.dirty[d] {
			s := d >> e.shardShift
			e.dirtyShard[s] = append(e.dirtyShard[s], graph.NodeID(d))
		}
		if !e.initialized[d] {
			e.uninitialized++
		}
	}
	return nil
}
