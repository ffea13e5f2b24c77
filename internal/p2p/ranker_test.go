package p2p

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"dpr/internal/graph"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

// modelRanker is the reference the ranker is checked against: the
// rows and the routing table as two plain maps, one fold at a time.
type modelRanker struct {
	id           PeerID
	g            *graph.Graph
	damping, eps float64
	teleport     []float64 // constant term by document; nil means 1-damping
	absolute     bool
	thr          float64 // push threshold in force
	owner        map[graph.NodeID]PeerID
	row          map[graph.NodeID]*[2]float64 // acc, last
}

func (m *modelRanker) base(d graph.NodeID) float64 {
	if m.teleport == nil {
		return 1 - m.damping
	}
	return m.teleport[d]
}

// rank is the paper's recompute: the constant term plus the folded mass.
func (m *modelRanker) rank(d graph.NodeID) float64 { return m.base(d) + m.row[d][0] }

// dest is where an update for d goes: a held row wins over the table.
func (m *modelRanker) dest(d graph.NodeID) PeerID {
	if m.row[d] != nil {
		return m.id
	}
	if o, ok := m.owner[d]; ok {
		return o
	}
	return NoPeer
}

// push sends document d's un-pushed rank change down its out-links if
// it is past the threshold: the one test, against the last PUSHED rank.
func (m *modelRanker) push(d graph.NodeID, out map[PeerID][]Update) {
	rank := m.rank(d)
	diff := math.Abs(rank - m.row[d][1])
	if !m.absolute {
		diff /= cmp.Or(math.Abs(rank), 1)
	}
	if diff > m.thr {
		m.emit(d, out)
	}
}

// emit is the push itself: each link's share as a bfloat16 when the
// rounding it leaves un-pushed keeps the residual within the threshold,
// else as a float32, and only what that emits counted as pushed — the
// rounding stays un-pushed.
func (m *modelRanker) emit(d graph.NodeID, out map[PeerID][]Update) {
	r, rank, links := m.row[d], m.rank(d), m.g.OutLinks(d)
	if len(links) == 0 {
		r[1] = rank
		return
	}
	n := float64(len(links))
	exact := m.damping * (rank - r[1]) / n
	share := float64(float32(exact))
	allowed := m.thr
	if !m.absolute {
		allowed *= cmp.Or(math.Abs(rank), 1)
	}
	if b := nearestBfloat16(float32(exact)); math.Abs(rank-(r[1]+b*n/m.damping)) <= allowed {
		share = b
	}
	r[1] += share * n / m.damping
	if share == 0 {
		return // nothing to push, or too little for a float32 to hold
	}
	for _, t := range links {
		out[m.dest(t)] = append(out[m.dest(t)], Update{Doc: t, Delta: share})
	}
}

// nearestBfloat16 is the float32 with zero low 16 bits nearest f, of
// the two that bracket it, the one with an even 17th bit on a tie.
func nearestBfloat16(f float32) float64 {
	lo := math.Float32bits(f) &^ 0xffff
	below, above := float64(math.Float32frombits(lo)), float64(math.Float32frombits(lo+0x10000))
	switch x := float64(f); {
	case math.Abs(x-below) < math.Abs(above-x), math.Abs(x-below) == math.Abs(above-x) && lo&0x10000 == 0:
		return below
	}
	return above
}

// TestBfloat16IsWhatIsBfloat16Accepts ties the ranker's rounding to
// the predicate the wire codec sends in two bytes: over random float32s
// under 2^127 in magnitude (above it the rounding may overflow to ±Inf,
// which the model's nearest of two finite neighbours does not do), the
// rounded value passes IsBfloat16 and is the model's nearest bfloat16,
// and the float32 next to it does not pass.
func TestBfloat16IsWhatIsBfloat16Accepts(t *testing.T) {
	r := rng.New(16)
	for i := 0; i < 100_000; i++ {
		f := math.Float32frombits(uint32(r.Uint64()))
		if math.IsNaN(float64(f)) || math.Abs(float64(f)) >= 0x1p127 {
			continue
		}
		b := bfloat16(float64(f))
		if !IsBfloat16(float32(b)) || b != nearestBfloat16(f) {
			t.Fatalf("bfloat16(%g) = %g, want %g with zero low bits", f, b, nearestBfloat16(f))
		}
		if next := math.Nextafter32(float32(b), float32(math.Inf(1))); IsBfloat16(next) {
			t.Fatalf("IsBfloat16(%g) accepts one float32 ulp off %g", next, b)
		}
	}
}

func (m *modelRanker) fold(batch []Update) (out map[PeerID][]Update, fwd []Update) {
	out = make(map[PeerID][]Update)
	touched := make(map[graph.NodeID]bool)
	for _, u := range batch {
		r := m.row[u.Doc]
		if r == nil {
			fwd = append(fwd, u)
			continue
		}
		touched[u.Doc] = true
		r[0] += u.Delta
	}
	for d := range touched {
		m.push(d, out)
	}
	return out, fwd
}

// relax lowers the threshold — never raises it, never below eps — and
// sweeps every row, touched or not.
func (m *modelRanker) relax(thr float64) map[PeerID][]Update {
	m.thr = max(m.eps, min(m.thr, thr))
	out := make(map[PeerID][]Update)
	for d := range m.row {
		m.push(d, out)
	}
	return out
}

func sortedUpdates(us []Update) []Update {
	us = slices.Clone(us)
	slices.SortFunc(us, func(a, b Update) int {
		return cmp.Or(cmp.Compare(a.Doc, b.Doc), cmp.Compare(a.Delta, b.Delta))
	})
	return us
}

// sameOut compares an outbox with the model's per-destination batches
// as multisets, and returns "" or how they differ.
func sameOut(got [][]Update, want map[PeerID][]Update) string {
	for slot, us := range got {
		dest := PeerID(slot - 1)
		if !slices.Equal(sortedUpdates(us), sortedUpdates(want[dest])) {
			return fmt.Sprintf("updates for peer %d = %v, model has %v", dest, sortedUpdates(us), sortedUpdates(want[dest]))
		}
		delete(want, dest)
	}
	for dest, us := range want {
		if len(us) > 0 {
			return fmt.Sprintf("no outbox slot for peer %d, model has %v", dest, us)
		}
	}
	return ""
}

// rankerScript drives the ranker and the map model through one script
// of folds (with their self-directed chains), threshold relaxations,
// adoptions, sheds, ownership pushes and forwards, each choice in
// [0, n) drawn by intn, for as long as more reports, and
// requires identical rows and identical per-destination update
// multisets after every step — a fold's first batch may be handed over
// cut into several, some empty, which the model folds as one — — including for owners past the end of
// the table the ranker was built with, and for documents outside the
// graph. After every step the rows are strictly ascending and the
// index finds exactly the model's held documents. The script also
// picks the graph, whether a per-document constant term replaces
// 1-damping, whether the threshold is absolute and whether the ranker
// is built from a shuffled document list; adoptions come in any order
// and may repeat a document. Every n is at most 256. It returns "" or
// the first step at which the two disagree.
func rankerScript(intn func(n int) int, more func() bool) string {
	const docs, self = 96, PeerID(1)
	damping := 0.85 // a variable: 1-damping must round at run time, as the ranker's does
	// A fraction in [0, 1) to 16 bits, from two choices.
	unit := func() float64 { return float64(intn(256)<<8|intn(256)) / (1 << 16) }
	shuffle := func(ds []graph.NodeID) {
		for i := len(ds) - 1; i > 0; i-- {
			j := intn(i + 1)
			ds[i], ds[j] = ds[j], ds[i]
		}
	}
	// Documents the index is asked for: every one near the graph, and far ones.
	probes := []graph.NodeID{math.MinInt32, 1 << 20, math.MaxInt32}
	for d := graph.NodeID(-2); d < docs+2; d++ {
		probes = append(probes, d)
	}
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, uint64(1+intn(256))))
	m := &modelRanker{id: self, g: g, damping: damping, eps: 1e-3, thr: StartThreshold(1e-3), absolute: intn(3) == 0,
		owner: make(map[graph.NodeID]PeerID), row: make(map[graph.NodeID]*[2]float64)}
	if intn(2) == 0 {
		m.teleport = make([]float64, docs)
		for d := range m.teleport {
			m.teleport[d] = 0.3 * unit()
		}
	}
	docPeer := make([]PeerID, docs)
	var own []graph.NodeID
	for d := range docPeer {
		docPeer[d] = PeerID(intn(4))
		m.owner[graph.NodeID(d)] = docPeer[d]
		if docPeer[d] == self {
			own = append(own, graph.NodeID(d))
			m.row[graph.NodeID(d)] = &[2]float64{0, 0}
		}
	}
	if intn(4) == 0 {
		shuffle(own)
	}
	rk := NewRanker(self, g, own, docPeer, m.teleport, damping, m.eps, m.thr, m.absolute, telemetry.NewRegistry().Gauge("mass"))
	if msg := sameOut(rk.InitialOut(), func() map[PeerID][]Update {
		// The initial push is a fold of nothing that collects every row.
		out := make(map[PeerID][]Update)
		for d := range m.row {
			m.emit(d, out)
		}
		return out
	}()); msg != "" {
		return "initial push: " + msg
	}
	held := func() (ds []graph.NodeID) {
		for d := range m.row {
			ds = append(ds, d)
		}
		slices.Sort(ds)
		return ds
	}
	for step := 1; more(); step++ {
		switch op := intn(10); {
		case op == 9: // next stage, a stage already passed (a plain sweep), or straight to the floor
			was := m.thr
			thr := []float64{NextThreshold(was, m.eps), 2 * was, math.Inf(1), 0}[intn(4)]
			if msg := sameOut(rk.Relax(thr), maps(m.relax(thr))); msg != "" {
				return fmt.Sprintf("step %d: Relax(%v): %s", step, thr, msg)
			}
			if got := rk.thr; got != m.thr || got > was || got < m.eps {
				return fmt.Sprintf("step %d: threshold %v after Relax(%v) from %v, model %v", step, got, thr, was, m.thr)
			}
		case op < 6: // fold a batch, then the chain of self-directed consequences
			batch := make([]Update, 1+intn(40))
			for i := range batch {
				batch[i] = Update{Doc: graph.NodeID(intn(docs+4) - 2), Delta: unit() - 0.3}
			}
			// The ranker is handed the first batch cut into up to four
			// pieces, empty ones among them, as a burst of frames.
			pieces := [][]Update{batch}
			for cuts := intn(4); cuts > 0; cuts-- {
				last := pieces[len(pieces)-1]
				at := intn(len(last) + 1)
				pieces = append(pieces[:len(pieces)-1], last[:at], last[at:])
			}
			for len(batch) > 0 {
				out, fwd, folded := rk.Fold(pieces...)
				wantOut, wantFwd := m.fold(batch)
				want := 0.0
				for _, u := range batch {
					want += u.Delta
				}
				for _, u := range wantFwd {
					want -= u.Delta
				}
				if !slices.Equal(fwd, wantFwd) || math.Abs(folded-want) > 1e-9 {
					return fmt.Sprintf("step %d: fold refused %v and folded %v, model %v and %v", step, fwd, folded, wantFwd, want)
				}
				if msg := sameOut(out, maps(wantOut)); msg != "" {
					return fmt.Sprintf("step %d: fold: %s", step, msg)
				}
				// Forward what the fold refused, by the current table.
				fout, dropped := rk.ForwardOut(fwd)
				wantF, wantDropped := make(map[PeerID][]Update), 0
				for _, u := range wantFwd {
					if o := m.dest(u.Doc); o == NoPeer || (o == self && m.row[u.Doc] == nil) {
						wantDropped++
					} else {
						wantF[o] = append(wantF[o], u)
					}
				}
				if dropped != wantDropped {
					return fmt.Sprintf("step %d: forward dropped %d, model %d", step, dropped, wantDropped)
				}
				if msg := sameOut(fout, wantF); msg != "" {
					return fmt.Sprintf("step %d: forward: %s", step, msg)
				}
				batch = slices.Clone(out[self+1])
				pieces = [][]Update{batch}
			}
		case op < 7: // adopt rows, some of them already held or listed twice: the first is taken
			var ds []graph.NodeID
			var acc, last []float64
			for i := intn(6); i >= 0; i-- {
				d := graph.NodeID(intn(docs))
				ds = append(ds, d)
				acc, last = append(acc, unit()), append(last, unit())
				if m.row[d] == nil {
					m.row[d] = &[2]float64{acc[len(acc)-1], last[len(last)-1]}
				}
			}
			rk.Adopt(ds, acc, last)
		case op < 8: // shed held rows to a peer the table may never have seen
			hs := held()
			if len(hs) == 0 {
				continue
			}
			shuffle(hs)
			hs = hs[:1+intn(min(len(hs), 5))]
			to := PeerID(intn(7))
			acc, last, err := rk.Shed(hs, to)
			if err != nil {
				return fmt.Sprintf("step %d: shed: %v", step, err)
			}
			for i, d := range hs {
				if row := m.row[d]; acc[i] != row[0] || last[i] != row[1] {
					return fmt.Sprintf("step %d: shed doc %d as (%v %v), model row %v", step, d, acc[i], last[i], *row)
				}
				delete(m.row, d)
				m.owner[d] = to
			}
			if _, _, err := rk.Shed([]graph.NodeID{hs[0]}, to); err == nil {
				return fmt.Sprintf("step %d: shed a row twice", step)
			}
		default: // ownership push: held rows keep their rows
			ds := make([]graph.NodeID, 1+intn(8))
			to := PeerID(intn(7))
			for i := range ds {
				ds[i] = graph.NodeID(intn(docs))
				if m.row[ds[i]] == nil {
					m.owner[ds[i]] = to
				}
			}
			rk.SetOwner(ds, to)
		}
		table, mass := rk.OwnerTable(), 0.0
		for d := graph.NodeID(0); d < docs; d++ {
			if table[d] != m.dest(d) {
				return fmt.Sprintf("step %d: doc %d routed to %d, model %d", step, d, table[d], m.dest(d))
			}
		}
		for i := 1; i < len(rk.docs); i++ {
			if rk.docs[i-1] >= rk.docs[i] {
				return fmt.Sprintf("step %d: rows %d and %d hold docs %d and %d, not ascending", step, i-1, i, rk.docs[i-1], rk.docs[i])
			}
		}
		for _, d := range probes {
			if i := rk.index.find(rk.docs, d); (i >= 0) != (m.row[d] != nil) || i >= 0 && rk.docs[i] != d {
				return fmt.Sprintf("step %d: index finds doc %d at row %d, model holds it: %v", step, d, i, m.row[d] != nil)
			}
		}
		ds, acc, last := rk.Rows()
		if len(ds) != len(m.row) {
			return fmt.Sprintf("step %d: %d rows, model %d", step, len(ds), len(m.row))
		}
		rank := make([]float64, docs)
		rk.RanksInto(rank)
		for i, d := range ds {
			if row := m.row[d]; row == nil || rank[d] != m.rank(d) || acc[i] != row[0] || last[i] != row[1] {
				return fmt.Sprintf("step %d: row of doc %d = (%v %v %v), model %v", step, d, rank[d], acc[i], last[i], row)
			}
			mass += rank[d]
		}
		if got := rk.mass.Load(); math.Abs(got-mass) > 1e-9 {
			return fmt.Sprintf("step %d: mass gauge %v, rows sum to %v", step, got, mass)
		}
	}
	return ""
}

// TestRankerMatchesMapModel runs rankerScript on the scripts that
// seeds 1–20 draw, 300 steps each.
func TestRankerMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		if msg := rankerScript(seededScript(seed, 300)); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// FuzzRankerModel searches for a script on which the ranker and the
// model disagree: rankerScript with each choice read from the input.
// The corpus is the scripts of TestRankerMatchesMapModel, byte for
// byte.
func FuzzRankerModel(f *testing.F) {
	for seed := uint64(1); seed <= 20; seed++ {
		f.Add(recordScript(seed, 300, rankerScript))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if msg := rankerScript(byteScript(script)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestRankerPushConservesMass: a push emits rounded shares, so it cannot
// emit a row's whole residual — and must not claim to. Row by row, what
// has been emitted (over the damping factor) plus what is still un-pushed
// is the rank, to 1e-15; and an emitted share is always a float32.
// Document i links to fan[i] documents of its own on another peer, so
// every update names the row that pushed it.
func TestRankerPushConservesMass(t *testing.T) {
	const rows, span, damping = 40, 16, 0.85
	r := rng.New(31)
	adj := make([][]graph.NodeID, rows+rows*span)
	docPeer := make([]PeerID, len(adj))
	own := make([]graph.NodeID, rows)
	for i := range own {
		own[i] = graph.NodeID(i)
		for k := 0; k <= r.Intn(span); k++ {
			adj[i] = append(adj[i], graph.NodeID(rows+i*span+k))
		}
	}
	for d := rows; d < len(docPeer); d++ {
		docPeer[d] = 1
	}
	rk := NewRanker(0, graph.FromAdjacency(adj), own, docPeer, nil, damping, 1e-6, StartThreshold(1e-6), false, telemetry.NewRegistry().Gauge("mass"))
	emitted := make([]float64, rows) // per row, summed over its links
	tally := func(out [][]Update) {
		for _, us := range out {
			for _, u := range us {
				if float64(float32(u.Delta)) != u.Delta {
					t.Fatalf("pushed %v to doc %d: not a float32", u.Delta, u.Doc)
				}
				emitted[(int(u.Doc)-rows)/span] += u.Delta
			}
		}
	}
	check := func(step int) {
		rank := make([]float64, rows) // rows hold documents 0..rows-1, in order
		rk.RanksInto(rank)
		_, _, last := rk.Rows()
		for i := range rank {
			if got := emitted[i]/damping + (rank[i] - last[i]); math.Abs(got-rank[i]) > 1e-15*math.Max(1, math.Abs(rank[i])) {
				t.Fatalf("step %d row %d: emitted %v/d + residual %v = %v, rank %v (off by %g)",
					step, i, emitted[i], rank[i]-last[i], got, rank[i], got-rank[i])
			}
		}
	}
	tally(rk.InitialOut())
	check(0)
	for step := 1; step <= 400; step++ {
		if step%40 == 0 {
			tally(rk.Relax(NextThreshold(rk.thr, 1e-6)))
		}
		batch := make([]Update, 1+r.Intn(30))
		for i := range batch {
			batch[i] = Update{Doc: graph.NodeID(r.Intn(rows)), Delta: (r.Float64() - 0.4) * math.Pow(10, -float64(r.Intn(9)))}
		}
		out, _, _ := rk.Fold(batch)
		tally(out)
		check(step)
	}
}

// TestInitialOutSkipsRowsAlreadyPushed: a fold can run before Start (a
// neighbour's initial push arrives first) and push a row; the initial
// push must then leave the row alone. Its residual is not zero — the
// rounded shares left a remainder — and re-pushing remainders cost the
// 500k-document cluster half a message a document.
func TestInitialOutSkipsRowsAlreadyPushed(t *testing.T) {
	g := graph.FromAdjacency([][]graph.NodeID{{2, 3, 4}, {2, 3, 4}, nil, nil, nil})
	rk := NewRanker(0, g, []graph.NodeID{0, 1}, []PeerID{0, 0, 1, 1, 1}, nil, 0.85, 1e-3, StartThreshold(1e-3), false, telemetry.NewRegistry().Gauge("mass"))
	out, _, _ := rk.Fold([]Update{{Doc: 0, Delta: 0.7}})
	if len(out[2]) != 3 {
		t.Fatalf("the early fold pushed %v, want row 0's three links", out[2])
	}
	rank := make([]float64, 5)
	rk.RanksInto(rank)
	if _, _, last := rk.Rows(); rank[0] == last[0] {
		t.Fatalf("no remainder after pushing rank %v in rounded thirds: the test needs one", rank[0])
	}
	// Row 1's share, 0.85·0.15/3 = 0.0425, goes as the nearest bfloat16:
	// the 7e-5 of rank it leaves behind is well under the first stage.
	if first := rk.InitialOut()[2]; len(first) != 3 || first[0].Delta != 0.04248046875 {
		t.Fatalf("initial push %v, want row 1's three links and nothing of row 0", first)
	}
}

// maps drops the model's empty batches, which the outbox cannot tell
// from absent ones.
func maps(m map[PeerID][]Update) map[PeerID][]Update {
	for k, v := range m {
		if len(v) == 0 {
			delete(m, k)
		}
	}
	return m
}

// foldFixture is a ranker holding an eighth of a power-law graph, as a
// peer of an 8-peer cluster does — at the last stage of the threshold
// schedule, where every fold pushes — and a batch that touches its rows
// the way a round of inbound frames does.
func foldFixture(tb testing.TB, docs, batch int) (*Ranker, []Update) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 7))
	docPeer := make([]PeerID, docs)
	var own []graph.NodeID
	for d := range docPeer {
		if docPeer[d] = PeerID(d % 8); docPeer[d] == 3 {
			own = append(own, graph.NodeID(d))
		}
	}
	r := rng.New(11)
	us := make([]Update, batch)
	for i := range us {
		us[i] = Update{Doc: own[r.Intn(len(own))], Delta: 0.01}
	}
	return NewRanker(3, g, own, docPeer, nil, 0.85, 1e-3, 1e-3, false, telemetry.NewRegistry().Gauge("mass")), us
}

func TestRankerWarmFoldAllocatesNothing(t *testing.T) {
	rk, us := foldFixture(t, 20000, 4096)
	rk.Fold(us)
	if allocs := testing.AllocsPerRun(20, func() { rk.Fold(us) }); allocs != 0 {
		t.Fatalf("warm fold allocates %v times, want 0", allocs)
	}
	burst := frames(us, 8)
	rk.Fold(burst...)
	if allocs := testing.AllocsPerRun(20, func() { rk.Fold(burst...) }); allocs != 0 {
		t.Fatalf("warm fold of %d batches allocates %v times, want 0", len(burst), allocs)
	}
}

// frames cuts us into n batches of equal length, each ordered by
// document as a decoded frame is.
func frames(us []Update, n int) [][]Update {
	bs := make([][]Update, n)
	for i := range bs {
		bs[i] = slices.Clone(us[i*len(us)/n : (i+1)*len(us)/n])
		slices.SortFunc(bs[i], func(a, b Update) int { return cmp.Compare(a.Doc, b.Doc) })
	}
	return bs
}

// TestFoldOfBatchesMatchesConcatenation: folding several batches in one
// call gives, bit for bit, what folding their concatenation does — the
// outbox in order, the refused updates, the folded mass, every row, the
// mass gauge and the recompute count, so a row two batches touch is
// recomputed once — over batches that repeat documents across batches,
// name documents the ranker does not hold, or are empty.
func TestFoldOfBatchesMatchesConcatenation(t *testing.T) {
	const docs = 400
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 3))
	docPeer := make([]PeerID, docs)
	var own []graph.NodeID
	for d := range docPeer {
		if docPeer[d] = PeerID(d % 4); docPeer[d] == 1 {
			own = append(own, graph.NodeID(d))
		}
	}
	build := func() (*Ranker, *telemetry.Gauge) {
		mass := telemetry.NewRegistry().Gauge("mass")
		return NewRanker(1, g, own, docPeer, nil, 0.85, 1e-4, 1e-3, false, mass), mass
	}
	split, splitMass := build()
	whole, wholeMass := build()
	r := rng.New(9)
	for step := 0; step < 200; step++ {
		if step%50 == 49 {
			split.Relax(NextThreshold(split.thr, 1e-4))
			whole.Relax(NextThreshold(whole.thr, 1e-4))
		}
		batches := make([][]Update, 1+r.Intn(6))
		var concat []Update
		for i := range batches {
			if r.Intn(5) == 0 {
				continue // an empty batch
			}
			for j := r.Intn(40); j >= 0; j-- {
				d := own[r.Intn(len(own))]
				if r.Intn(8) == 0 {
					d = graph.NodeID(r.Intn(docs + 10)) // often not held, sometimes past the graph
				}
				batches[i] = append(batches[i], Update{Doc: d, Delta: (r.Float64() - 0.3) * 0.05})
			}
			concat = append(concat, batches[i]...)
		}
		out, fwd, folded := split.Fold(batches...)
		wantOut, wantFwd, wantFolded := whole.Fold(concat)
		if math.Float64bits(folded) != math.Float64bits(wantFolded) || !slices.Equal(fwd, wantFwd) {
			t.Fatalf("step %d: folded %v and refused %v, the concatenation %v and %v", step, folded, fwd, wantFolded, wantFwd)
		}
		if len(out) != len(wantOut) {
			t.Fatalf("step %d: %d outbox slots, the concatenation %d", step, len(out), len(wantOut))
		}
		for slot := range out {
			if !slices.Equal(out[slot], wantOut[slot]) {
				t.Fatalf("step %d: slot %d = %v, the concatenation %v", step, slot, out[slot], wantOut[slot])
			}
		}
		d1, acc1, last1 := split.Rows()
		d2, acc2, last2 := whole.Rows()
		if !slices.Equal(d1, d2) || !slices.Equal(acc1, acc2) || !slices.Equal(last1, last2) {
			t.Fatalf("step %d: rows differ from the concatenation's", step)
		}
		if a, b := splitMass.Load(), wholeMass.Load(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: mass gauge %v, the concatenation's %v", step, a, b)
		}
		if a, b := split.Recomputed(), whole.Recomputed(); a != b {
			t.Fatalf("step %d: %d rows recomputed, the concatenation %d: a row hit by two batches is recomputed once", step, a, b)
		}
	}
}

// BenchmarkRankerFold is the receiver-side cost of one update: routed
// to its row, accumulated, and its document's consequences collected
// per destination. batch=4096 folds one large batch; burst=8 folds
// eight ordered 108-update frames, a wire-32 peer's burst, in one call,
// and burst=8/per-frame the same frames one call each.
func BenchmarkRankerFold(b *testing.B) {
	rk, us := foldFixture(b, 100000, 4096)
	run := func(name string, batches [][]Update, perFrame bool) {
		n := 0
		for _, us := range batches {
			n += len(us)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				if !perFrame {
					rk.Fold(batches...)
					continue
				}
				for _, us := range batches {
					rk.Fold(us)
				}
			}
		})
	}
	run("batch=4096", [][]Update{us}, false)
	burst := frames(us[:8*108], 8)
	run("burst=8", burst, false)
	run("burst=8/per-frame", burst, true)
}

// BenchmarkRankerRelax is what a stage costs a peer per held document
// before anything is released: the residual test over every row.
func BenchmarkRankerRelax(b *testing.B) {
	rk, _ := foldFixture(b, 100000, 1)
	rk.Relax(math.Inf(1)) // the rows' first push
	rows, _, _ := rk.Rows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(rows) {
		rk.Relax(math.Inf(1))
	}
}

// TestRankerLinksFollowOwners: a push sends each link's share to the
// outbox its link carries, which the membership setters update in
// place; after every one of them, every link must still name the owner
// a lookup of its document gives.
func TestRankerLinksFollowOwners(t *testing.T) {
	const docs, peers = 200, 5
	r := rng.New(5)
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 5))
	docPeer := make([]PeerID, docs)
	var own []graph.NodeID
	for d := range docPeer {
		if docPeer[d] = PeerID(r.Intn(peers)); docPeer[d] == 0 {
			own = append(own, graph.NodeID(d))
		}
	}
	rk := NewRanker(0, g, own, docPeer, nil, 0.85, 1e-3, 1e-3, false, telemetry.NewRegistry().Gauge("mass"))
	some := func() []graph.NodeID {
		ds := make([]graph.NodeID, 1+r.Intn(20))
		for i := range ds {
			ds[i] = graph.NodeID(r.Intn(docs))
		}
		return ds
	}
	for step := 0; step < 500; step++ {
		switch r.Intn(3) {
		case 0:
			rk.SetOwner(some(), PeerID(r.Intn(peers+2)))
		case 1:
			ds := some()
			rk.Adopt(ds, make([]float64, len(ds)), make([]float64, len(ds)))
		default:
			held, _, _ := rk.Rows()
			if len(held) > 0 {
				if _, _, err := rk.Shed(held[:1+r.Intn(min(len(held), 10))], PeerID(r.Intn(peers+2))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, l := range rk.links {
			if want := rk.ownerLocked(l.doc); l.owner() != want {
				t.Fatalf("step %d: link %d to doc %d goes to peer %d, its owner is %d", step, i, l.doc, l.owner(), want)
			}
		}
	}
}

// TestRankerSizedByRowsNotDocs: a ranker holding a thousand rows of a
// graph of 2^20 documents keeps what its rows need and nothing sized by
// the graph — a word per document alone would be 4 MB.
func TestRankerSizedByRowsNotDocs(t *testing.T) {
	const docs, stride = 1 << 20, 1 << 10
	g := graph.Cycle(docs)
	docPeer := make([]PeerID, docs)
	var own []graph.NodeID
	for d := range docPeer {
		if d%stride == 0 {
			own = append(own, graph.NodeID(d))
		} else {
			docPeer[d] = PeerID(1 + d%7)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rk := NewRanker(0, g, own, docPeer, nil, 0.85, 1e-3, 1e-3, false, telemetry.NewRegistry().Gauge("mass"))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept >= 1<<20 {
		t.Fatalf("a ranker of %d rows over %d documents keeps %d bytes, want under 1 MB", len(own), docs, kept)
	}
	sent := 0
	for _, us := range rk.InitialOut() {
		sent += len(us)
	}
	if sent != len(own) {
		t.Fatalf("initial push sent %d updates, want one per row", sent)
	}
	runtime.KeepAlive(rk)
	runtime.KeepAlive(docPeer) // the driver's, live on both sides of the measurement
}

// BenchmarkRankerBuild is what NewRanker costs per out-link of the rows
// it compiles: one peer's shard of a 500k-document graph placed at
// random on 32 peers, as wire.NewCluster builds each of its peers.
func BenchmarkRankerBuild(b *testing.B) {
	const docs, peers, self = 500000, 32, 3
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, 42))
	docPeer, own := randomShard(docs, peers, self)
	edges := 0
	for _, d := range own {
		edges += len(g.OutLinks(d))
	}
	mass := telemetry.NewRegistry().Gauge("mass")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRanker(self, g, own, docPeer, nil, 0.85, 1e-3, 1e-3, false, mass)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
}
