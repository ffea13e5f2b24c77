package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// Sharded pass execution. Figure 1's "concurrently on all peers"
// computes every peer's documents independently within a pass; the
// engine does it with real workers as a three-stage pipeline:
//
//   - compute phase (parallel): the pass's work list is split into
//     degree-weighted chunks; workers pull chunks and fold each
//     document's accumulated mass, recompute ranks, and *coalesce* the
//     resulting update messages in a per-chunk outbox keyed by
//     destination document — one accumulated delta per (chunk,
//     destination) instead of one update per edge. Coalescing is sound
//     because the fluid-style deltas combine additively (the same
//     associativity D-Iteration and asynchronous pagerank rely on).
//     Outbox entries are pre-bucketed by destination shard
//     (doc >> shardShift) so the merge phase never scans foreign work.
//   - merge phase (parallel, destination-sharded): each merge worker
//     owns a disjoint set of shards and applies every chunk's bucket
//     for its shards to `incoming`/`dirty` lock-free, walking chunks
//     in index order so each document's delta sequence is fixed.
//   - reduce phase (serial, tiny): per-chunk counters, router pricing
//     and retry-queue deferrals are folded in chunk order, preserving
//     the serial engine's exact counter and retry-queue behaviour.
//
// Determinism contract: results (ranks, counters, retry queues) are
// bit-identical for ANY worker count. Floating-point addition is not
// associative, so this only holds because nothing observable depends
// on how chunks are assigned to workers: chunk boundaries are derived
// from the work list alone (never from Workers), every per-chunk
// output is a pure function of its chunk, and all cross-chunk folds
// happen in chunk order. The work list itself is rebuilt shard-major
// each pass, which is likewise worker-count independent.
//
// All scratch (work list, chunk slices, outboxes, coalescing stamps)
// is owned by the engine and reused across passes, so steady-state
// passes allocate nothing beyond the goroutines themselves.

const (
	// mergeShards is the maximum destination-shard count. A shard owns
	// a contiguous power-of-two range of document ids (doc >>
	// shardShift) rather than doc%S: range ownership keeps each merge
	// worker's incoming/dirty accesses inside one region — and the
	// shard-major work list quasi-sorted — where modulo striding would
	// touch one float per cache line. The count is independent of the
	// worker count so per-document merge order never changes.
	mergeShards = 64

	// chunkGrain is the minimum edge weight per compute chunk; work
	// lists smaller than maxChunks*chunkGrain get fewer chunks so tiny
	// passes do not pay per-chunk overhead.
	chunkGrain = 2048
	// maxChunks caps the chunk count (and thus outbox memory). It is a
	// constant, not a function of Workers — see the determinism
	// contract above.
	maxChunks = 64
)

// routeEvent records one inter-peer message for router pricing.
type routeEvent struct {
	from p2p.PeerID
	doc  graph.NodeID
}

// deferredUpdate is one per-edge update destined to an absent peer.
// Deferrals stay per-edge (not coalesced) so the retry queue and its
// Redelivered accounting behave exactly like the serial deliver path.
type deferredUpdate struct {
	dest p2p.PeerID
	u    p2p.Update
}

// chunkOutbox collects one compute chunk's results. Its content is a
// pure function of the chunk, never of the worker that ran it.
type chunkOutbox struct {
	// buckets[s] holds the coalesced (destination, delta) pairs for
	// merge shard s, in first-touch order within the chunk. The bucket
	// slices are carved out of one slab on first use (see outboxes), so
	// warming an outbox costs one allocation, not mergeShards.
	buckets   [mergeShards][]p2p.Update
	held      []graph.NodeID // docs whose peer is offline this pass
	routes    []routeEvent   // inter-peer sends awaiting router pricing
	deferred  []deferredUpdate
	intra     int64
	inter     int64
	maxChange float64
}

func (o *chunkOutbox) reset() {
	for s := range o.buckets {
		o.buckets[s] = o.buckets[s][:0]
	}
	o.held = o.held[:0]
	o.routes = o.routes[:0]
	o.deferred = o.deferred[:0]
	o.intra, o.inter = 0, 0
	o.maxChange = 0
}

// chunkScratch is one worker's coalescing index: mark[d] packs
// (epoch<<32 | slot), where slot is d's entry index in the current
// chunk's bucket, valid while the stamped epoch matches. One packed
// word means one random cache touch per edge instead of two, and
// bumping epoch resets the whole index in O(1) between chunks.
//
// cur is the worker's private adjacency read cursor: compressed
// representations (internal/csr) decode into a per-cursor buffer from
// a per-cursor payload position, so each chunk worker skips ahead
// through its own chunk instead of allocating a fresh slice per
// OutLinks call.
type chunkScratch struct {
	mark  []uint64
	epoch uint32
	cur   graph.LinkCursor
}

func (sc *chunkScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: invalidate everything the slow way
		clear(sc.mark)
		sc.epoch = 1
	}
}

// pipeline is the engine-owned, pass-reusable scratch of the sharded
// pass pipeline.
type pipeline struct {
	work    []graph.NodeID
	chunks  [][]graph.NodeID
	outs    []chunkOutbox
	scratch []*chunkScratch
	deg     func(graph.NodeID) int // cached g.OutDegree method value
}

// runPassParallel is RunPass's compute+merge core. The caller has
// already handled churn, retry drain and initialization. One worker
// runs the identical pipeline inline; results are bit-identical for
// any worker count.
func (e *PassEngine) runPassParallel(work []graph.NodeID, workers int) {
	chunks, weight := e.chunkWork(work)
	if len(chunks) == 0 {
		return
	}
	// Expected coalesced entries per (chunk, shard), used to size fresh
	// outbox slabs. A shard cannot hold more distinct destinations than
	// its document range is wide.
	perBucket := weight/(len(chunks)*e.shardCount) + 8
	if w := 1 << e.shardShift; perBucket > w {
		perBucket = w
	}
	outs := e.outboxes(len(chunks), perBucket)

	// Stage 1: compute + coalesce, chunks pulled off a shared cursor.
	if workers <= 1 || len(chunks) == 1 {
		sc := e.scratchFor(0)
		for ci := range chunks {
			e.computeChunk(chunks[ci], &outs[ci], sc)
		}
	} else {
		n := workers
		if n > len(chunks) {
			n = len(chunks)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			sc := e.scratchFor(w)
			go func(sc *chunkScratch) {
				defer wg.Done()
				for {
					ci := int(cursor.Add(1)) - 1
					if ci >= len(chunks) {
						return
					}
					e.computeChunk(chunks[ci], &outs[ci], sc)
				}
			}(sc)
		}
		wg.Wait()
	}

	// Stage 2: destination-sharded merge; shard s owns the contiguous
	// document range [s<<shardShift, (s+1)<<shardShift), so
	// incoming/dirty writes never collide and stay cache-local.
	if workers <= 1 {
		for s := 0; s < e.shardCount; s++ {
			e.mergeShard(s, outs)
		}
	} else {
		n := workers
		if n > e.shardCount {
			n = e.shardCount
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func(w int) {
				defer wg.Done()
				for s := w; s < e.shardCount; s += n {
					e.mergeShard(s, outs)
				}
			}(w)
		}
		wg.Wait()
	}

	// Stage 3: deterministic reduction in chunk order. Router pricing
	// and retry deferrals see edges in exactly the order the serial
	// deliver path would have, so stateful routers (IP caches) and
	// queue contents match it bit for bit.
	for ci := range outs {
		out := &outs[ci]
		e.passIntra += out.intra
		e.passInter += out.inter
		if out.maxChange > e.passMaxChange {
			e.passMaxChange = out.maxChange
		}
		if e.Router != nil {
			for _, ev := range out.routes {
				e.counters.RoutedHops += int64(e.Router.Hops(ev.from, ev.doc))
			}
		}
		for _, du := range out.deferred {
			e.counters.Deferred++
			e.retry.Defer(du.dest, du.u)
		}
	}
}

// computeChunk folds one chunk's documents and coalesces their pushes
// into the chunk's outbox. Per-document state is touched only through
// the chunk owning the document, so no locks are needed.
//
//dpr:hotpath
func (e *PassEngine) computeChunk(chunk []graph.NodeID, out *chunkOutbox, sc *chunkScratch) {
	sc.nextEpoch()
	for _, d := range chunk {
		if e.removed[d] {
			e.dirty[d] = false
			e.incoming[d] = 0
			continue
		}
		if !e.net.DocOnline(d) {
			out.held = append(out.held, d)
			continue
		}
		e.dirty[d] = false
		delta := e.incoming[d]
		e.incoming[d] = 0
		e.st.acc[d] += delta
		old, new := e.st.recompute(d)
		if rel := relChange(old, new); rel > out.maxChange {
			out.maxChange = rel
		}
		if e.st.exceeds(old, new) {
			e.coalescePush(d, out, sc)
		}
	}
}

// coalescePush is push() with delivery deferred into the outbox and
// same-destination deltas accumulated into a single entry. Message
// accounting stays per-edge (classified here; peer liveness is frozen
// within a pass) so counters match the serial deliver path exactly.
//
//dpr:hotpath
func (e *PassEngine) coalescePush(d graph.NodeID, out *chunkOutbox, sc *chunkScratch) {
	links := sc.cur.OutLinks(d)
	if len(links) == 0 {
		e.st.markPushed(d)
		return
	}
	share := e.st.share(d, e.st.pendingDelta(d))
	if share == 0 {
		e.st.markPushed(d)
		return
	}
	fromPeer := e.net.PeerOf(d)
	for _, t := range links {
		destPeer := e.net.PeerOf(t)
		switch {
		case destPeer == fromPeer:
			out.intra++
		case e.net.Online(destPeer):
			out.inter++
			if e.Router != nil {
				out.routes = append(out.routes, routeEvent{fromPeer, t})
			}
		default:
			out.deferred = append(out.deferred, deferredUpdate{destPeer, p2p.Update{Doc: t, Delta: share}})
			continue // deferred mass waits in the retry queue
		}
		b := &out.buckets[int(t)>>e.shardShift]
		if m := sc.mark[t]; uint32(m>>32) == sc.epoch {
			(*b)[uint32(m)].Delta += share
		} else {
			sc.mark[t] = uint64(sc.epoch)<<32 | uint64(len(*b))
			*b = append(*b, p2p.Update{Doc: t, Delta: share})
		}
	}
	e.st.markPushed(d)
}

// mergeShard applies every chunk's bucket for shard s, walking chunks
// in index order so each document's delta sequence — and the dirty
// list append order — is independent of worker count. Held documents
// (offline peer) re-enter their shard's dirty list after the chunk
// that held them, mirroring the serial merge.
//
//dpr:hotpath
func (e *PassEngine) mergeShard(s int, outs []chunkOutbox) {
	list := e.dirtyShard[s]
	for ci := range outs {
		for _, u := range outs[ci].buckets[s] {
			e.incoming[u.Doc] += u.Delta
			if !e.dirty[u.Doc] {
				e.dirty[u.Doc] = true
				list = append(list, u.Doc)
			}
		}
		for _, d := range outs[ci].held {
			if int(d)>>e.shardShift == s {
				list = append(list, d) // dirty[d] stayed true while held
			}
		}
	}
	e.dirtyShard[s] = list
}

// chunkWork splits the pass's work list into degree-weighted chunks,
// returning them with the list's total edge weight. The chunk count
// scales with that weight but never with the worker count (see the
// determinism contract at the top of the file).
func (e *PassEngine) chunkWork(work []graph.NodeID) ([][]graph.NodeID, int) {
	if e.pipe.deg == nil {
		e.pipe.deg = e.st.g.OutDegree
	}
	deg := e.pipe.deg
	total := workWeight(work, deg)
	n := (total + chunkGrain - 1) / chunkGrain
	if n > maxChunks {
		n = maxChunks
	}
	e.pipe.chunks = splitChunksInto(e.pipe.chunks[:0], work, n, total, deg)
	return e.pipe.chunks, total
}

// workWeight is the total weight of a work list: document d weighs
// 1+outDegree(d).
func workWeight(work []graph.NodeID, outDegree func(graph.NodeID) int) int {
	total := len(work)
	for _, d := range work {
		total += outDegree(d)
	}
	return total
}

// outboxes returns n reset chunk outboxes, reusing capacity across
// passes. A fresh outbox gets all its buckets carved out of one slab
// sized perBucket entries each — three-index slices, so a bucket that
// outgrows its carve reallocates alone without touching neighbours.
func (e *PassEngine) outboxes(n, perBucket int) []chunkOutbox {
	for len(e.pipe.outs) < n {
		e.pipe.outs = append(e.pipe.outs, chunkOutbox{})
	}
	outs := e.pipe.outs[:n]
	for i := range outs {
		out := &outs[i]
		if out.buckets[0] == nil {
			slab := make([]p2p.Update, e.shardCount*perBucket)
			for s := 0; s < e.shardCount; s++ {
				o := s * perBucket
				out.buckets[s] = slab[o : o : o+perBucket]
			}
		}
		out.reset()
	}
	return outs
}

// scratchFor returns worker w's coalescing scratch, sized to the
// engine's destination range (which grows with every InsertDocument).
func (e *PassEngine) scratchFor(w int) *chunkScratch {
	for len(e.pipe.scratch) <= w {
		e.pipe.scratch = append(e.pipe.scratch, &chunkScratch{})
	}
	sc := e.pipe.scratch[w]
	if sc.cur == nil {
		sc.cur = graph.CursorFor(e.st.g)
	}
	// The index grows amortized, as the engine does one insert at a
	// time. A fresh slot is zero, stamped with epoch 0, which no chunk
	// reads as marked: nextEpoch runs before a chunk's first mark.
	if n := len(e.incoming); len(sc.mark) < n {
		sc.mark = append(sc.mark, make([]uint64, n-len(sc.mark))...)
	}
	return sc
}

// splitChunksInto divides work into at most n contiguous chunks of
// nearly equal total weight, appended to dst, where document d weighs
// 1+outDegree(d) — the cost of recomputing it plus pushing to its
// out-links — and total is the work list's weight (workWeight).
// Count-based splitting let one hub document serialize its whole chunk
// on power-law graphs; weighting gives a heavy hub a chunk of its own.
// The split is deterministic for a given (work, n) and every chunk is
// non-empty, so n > len(work) yields at most len(work) chunks.
func splitChunksInto(dst [][]graph.NodeID, work []graph.NodeID, n, total int, outDegree func(graph.NodeID) int) [][]graph.NodeID {
	if len(work) == 0 {
		return dst
	}
	if n > len(work) {
		n = len(work)
	}
	if n <= 1 {
		return append(dst, work)
	}
	// Greedy fair-share split: close a chunk once it carries at least
	// remaining/chunksLeft weight, keeping one document for each chunk
	// still to come.
	start, acc, made := 0, 0, 0
	for i, d := range work {
		acc += 1 + outDegree(d)
		if made < n-1 && acc*(n-made) >= total && len(work)-(i+1) >= n-1-made {
			dst = append(dst, work[start:i+1])
			start = i + 1
			total -= acc
			acc = 0
			made++
		}
	}
	if start < len(work) {
		dst = append(dst, work[start:])
	}
	return dst
}

// defaultWorkers resolves the Options.Workers setting.
func defaultWorkers(w int) int {
	if w == 0 {
		return 1 // serial unless explicitly requested
	}
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
