package engine

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

var rankerEngines = []string{"chaotic", "diffusion"}

// TestSmallGraphs runs the round driver on graphs a seeded power-law
// placement never produces: a cycle, where every rank is 1; more peers
// than documents, where idle peers must not stall quiescence; no edges,
// quiescent without one update, every rank the no-in-links 1−d; and one
// peer, where every update stays local.
func TestSmallGraphs(t *testing.T) {
	uniform := func(n int, v float64) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = v
		}
		return r
	}
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		peers     int
		seed      uint64
		eps       float64
		want      []float64 // nil: the centralized solution
		tol       float64   // max relative error
		noNetwork bool      // no update crosses a peer boundary
		noUpdates bool      // no update at all
	}{
		{"cycle12", graph.Cycle(12), 4, 1, 1e-10, uniform(12, 1), 1e-6, false, false},
		{"many-peers-few-docs", graph.Cycle(5), 32, 5, 1e-8, uniform(5, 1), 1e-4, false, false},
		{"no-edges", graph.NewBuilder(10).Build(), 4, 6, 0, uniform(10, 1-core.DefaultDamping), 1e-12, true, true},
		{"single-peer", graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(300, 43)), 1, 4, 1e-8, nil, 1e-4, true, false},
	} {
		want := tc.want
		if want == nil {
			want = reference(t, tc.g)
		}
		for _, name := range rankerEngines {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				net := p2p.NewNetwork(tc.peers)
				net.AssignRandom(tc.g, rng.New(tc.seed))
				e, err := New(name, Config{Graph: tc.g, Net: net, Opt: core.Options{Epsilon: tc.eps}})
				if err != nil {
					t.Fatal(err)
				}
				res := Drive(e, 0)
				if !res.Converged {
					t.Fatal("did not converge")
				}
				if err := maxRelErr(res.Ranks, want); err > tc.tol {
					t.Fatalf("max rel err %v > %v", err, tc.tol)
				}
				if tc.noNetwork && res.Counters.InterPeerMsgs != 0 {
					t.Fatalf("%d updates crossed a peer boundary", res.Counters.InterPeerMsgs)
				}
				if tc.noUpdates && res.Counters.Total() != 0 {
					t.Fatalf("%d updates sent", res.Counters.Total())
				}
			})
		}
	}
}

// TestResidualBoundsError pins the D-Iteration identity the residual is
// read from: ‖x*−x‖₁ ≤ (‖in-flight‖₁ + d‖un-pushed‖₁)/(1−d), so after
// every step — not only at the end — Residual() is at least the mean
// absolute distance to the centralized solution.
func TestResidualBoundsError(t *testing.T) {
	for _, name := range rankerEngines {
		t.Run(name, func(t *testing.T) {
			cfg, g := testCfg(t, 5_000, 16, 21, core.Options{Epsilon: 1e-7})
			ref := reference(t, g)
			e, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for done := false; !done; {
				st := e.Step()
				done = st.Done
				sum := 0.0
				for i, x := range e.Ranks() {
					sum += math.Abs(x - ref[i])
				}
				mean := sum / float64(len(ref))
				if got := e.Residual(); got*(1+1e-9) < mean {
					t.Fatalf("step %d: residual %v below mean error %v", st.Step, got, mean)
				}
				if st.Step > 5000 {
					t.Fatal("no convergence in 5000 steps")
				}
			}
		})
	}
}

// TestThresholdScheduleSavesMessages is the staged threshold as an
// ablation on one driver: the registrations differ only in the number
// handed to NewRanker, and starting at 1/2 and halving reaches the same
// ranks in at most 0.85 of the inter-peer messages ε-from-the-start
// takes (229k against 316k when recorded).
func TestThresholdScheduleSavesMessages(t *testing.T) {
	msgs := map[string]int64{}
	for _, name := range rankerEngines {
		cfg, g := testCfg(t, 10_000, 32, 42, core.Options{Epsilon: 2e-6})
		e, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := Drive(e, 0)
		if !res.Converged {
			t.Fatalf("%s did not converge", name)
		}
		if err := maxRelErr(res.Ranks, reference(t, g)); err > 1e-4 {
			t.Fatalf("%s: max rel err %v > 1e-4", name, err)
		}
		msgs[name] = res.Counters.InterPeerMsgs
	}
	if float64(msgs["diffusion"]) > 0.85*float64(msgs["chaotic"]) {
		t.Fatalf("diffusion sent %d messages, chaotic %d: want at most 0.85x", msgs["diffusion"], msgs["chaotic"])
	}
}

// TestRankerSnapshotRefused: a snapshot that does not fit the engine, or
// is damaged, is an error — never a panic, and never a half-installed
// state: the same engine then takes the intact snapshot and finishes
// where the uninterrupted run does (ε is above float32 rounding, so the
// restore's sweep releases nothing; see Restore).
func TestRankerSnapshotRefused(t *testing.T) {
	const docs, peers, seed = 120, 3, 5
	opt := core.Options{Epsilon: 1e-6}
	for _, name := range rankerEngines {
		t.Run(name, func(t *testing.T) {
			build := func(docs int, opt core.Options) Engine {
				cfg, _ := testCfg(t, docs, peers, seed, opt)
				e, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			a := build(docs, opt)
			a.Step()
			a.Step()
			snap, err := a.(Checkpointer).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// The first inbox entry follows the 8-word header, peer 0's rows
			// and its inbox count: a varint, spliced out for one past the graph.
			ra := a.(*rankerEngine)
			if len(ra.inbox[0]) == 0 {
				t.Fatal("peer 0 has nothing in flight after two steps")
			}
			held, rank, acc, last := ra.rankers[0].Rows()
			at := 8*8 + len(p2p.EncodeRows(nil, held, rank, acc, last)) + len(binary.AppendUvarint(nil, uint64(len(ra.inbox[0]))))
			_, k := binary.Varint(snap[at:])
			stray := slices.Concat(snap[:at], binary.AppendVarint(nil, docs), snap[at+k:])

			b := build(docs, opt)
			refuse := func(what string, e Engine, snap []byte) {
				t.Helper()
				if e.(Checkpointer).Restore(snap) == nil {
					t.Fatalf("%s: snapshot accepted", what)
				}
			}
			refuse("another graph size", build(docs+1, opt), snap)
			refuse("another damping", build(docs, core.Options{Epsilon: 1e-6, Damping: 0.5}), snap)
			refuse("inbox document outside the graph", b, stray)
			refuse("trailing bytes", b, append(append([]byte(nil), snap...), 0))
			for cut := range snap {
				refuse("cut short", b, snap[:cut])
			}
			// PR 20's layout: the same header under the magic "DPRK1".
			dprk1 := slices.Clone(snap)
			dprk1[4] = '1'
			if err := b.(Checkpointer).Restore(dprk1); err == nil || !strings.Contains(err.Error(), "DPRK1") {
				t.Fatalf("DPRK1 image: err %v, want one naming DPRK1", err)
			}

			if err := b.(Checkpointer).Restore(snap); err != nil {
				t.Fatal(err)
			}
			want, got := Drive(a, 0), Drive(b, 0)
			if !got.Converged || got.Counters != want.Counters {
				t.Fatalf("restored run: converged %v, counters %+v, want %+v", got.Converged, got.Counters, want.Counters)
			}
			for i := range want.Ranks {
				if got.Ranks[i] != want.Ranks[i] {
					t.Fatalf("rank[%d] = %v restored, %v uninterrupted", i, got.Ranks[i], want.Ranks[i])
				}
			}
		})
	}
}

// TestRankerRestoreDeliversRelaxedMass: at ε from the start a row's
// float32 rounding can sit above the threshold until a fold next touches
// it, so the sweep a restore runs releases updates. They must reach an
// inbox — the mass ledger balances only if they do.
func TestRankerRestoreDeliversRelaxedMass(t *testing.T) {
	cfg, g := testCfg(t, 2_000, 8, 13, core.Options{Epsilon: 1e-9})
	a, err := New("chaotic", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		a.Step()
	}
	snap, err := a.(Checkpointer).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("chaotic", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.(Checkpointer).Restore(snap); err != nil {
		t.Fatal(err)
	}
	if was, now := a.(*rankerEngine).pending, b.(*rankerEngine).pending; now <= was {
		t.Fatalf("restore's sweep released nothing (%d in flight before, %d after): the test no longer tests", was, now)
	}
	if got, want := b.(MassAccountant).MassBalance(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("after restore: folded + in flight %v, shipped %v", got, want)
	}
	if res := Drive(b, 0); !res.Converged || maxRelErr(res.Ranks, reference(t, g)) > 1e-6 {
		t.Fatalf("restored run: converged %v, max rel err %v", res.Converged, maxRelErr(res.Ranks, reference(t, g)))
	}
}
