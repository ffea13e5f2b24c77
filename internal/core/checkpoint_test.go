package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

func TestCheckpointRoundTrip(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1000, 61))
	e, net := setup(t, g, 20, Options{Epsilon: 1e-8}, 1)
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := NewPassEngine(g, net, nil, Options{Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for i := range res.Ranks {
		if restored.Ranks()[i] != res.Ranks[i] {
			t.Fatalf("rank[%d] differs after restore", i)
		}
	}
	// A restored converged state is quiescent: running produces no new
	// network messages.
	r2 := restored.Run()
	if !r2.Converged {
		t.Fatal("restored engine not converged")
	}
	if r2.Counters.InterPeerMsgs != 0 {
		t.Fatalf("restored converged engine sent %d messages", r2.Counters.InterPeerMsgs)
	}
}

func TestCheckpointResumeRefinement(t *testing.T) {
	// Converge loosely, checkpoint, restore with a tighter threshold:
	// refinement resumes from the stored state and lands on the exact
	// fixed point without recomputing from scratch.
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(1500, 62))
	loose, net := setup(t, g, 25, Options{Epsilon: 1e-2}, 2)
	loose.Run()
	var buf bytes.Buffer
	if err := loose.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	tight, err := NewPassEngine(g, net, nil, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Resume refinement: the residual deltas the loose run was allowed
	// to keep are above the tighter threshold and must propagate.
	if tight.FlushPending() == 0 {
		t.Fatal("nothing to refine; loose checkpoint unexpectedly exact")
	}
	resumed := tight.Run()
	if !resumed.Converged {
		t.Fatal("refinement did not converge")
	}

	want := reference(t, g)
	if err := maxRelErr(resumed.Ranks, want); err > 1e-5 {
		t.Fatalf("refined ranks off by %v", err)
	}

	// And it is cheaper than computing from scratch at the tight
	// threshold.
	scratch, _ := setup(t, g, 25, Options{Epsilon: 1e-9}, 2)
	sres := scratch.Run()
	if resumed.Counters.InterPeerMsgs >= sres.Counters.InterPeerMsgs {
		t.Fatalf("resume (%d msgs) not cheaper than scratch (%d msgs)",
			resumed.Counters.InterPeerMsgs, sres.Counters.InterPeerMsgs)
	}
}

// TestQuickCheckpointRestartEquivalence: a run interrupted after an
// arbitrary pass, checkpointed and restored into a fresh engine lands on
// bit-identical final ranks against the uninterrupted run — the
// restart-safety contract the paper's churn model leans on, and the
// format dpr.Session ships. The teleport arm runs with a non-uniform
// constant term, which the restore must take from the engine's options,
// not from 1 − d.
func TestQuickCheckpointRestartEquivalence(t *testing.T) {
	for _, arm := range []string{"plain", "teleport"} {
		t.Run(arm, func(t *testing.T) {
			prop := func(rawDocs, rawPeers uint16, seed uint64, rawCut uint8) bool {
				docs := 50 + int(rawDocs)%400
				peers := 2 + int(rawPeers)%14
				opt := Options{Epsilon: 1e-8}
				if arm == "teleport" {
					r := rng.New(seed)
					opt.Teleport = make([]float64, docs)
					for d := range opt.Teleport {
						opt.Teleport[d] = float64(d%3) * r.Float64()
					}
				}
				g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(docs, seed))

				a, _ := setup(t, g, peers, opt, seed^0xa5a5)
				for cut := 1 + int(rawCut)%5; cut > 0; cut-- {
					a.RunPass()
				}
				var buf bytes.Buffer
				if err := a.WriteCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				resA := a.Run()

				b, _ := setup(t, g, peers, opt, seed^0xa5a5)
				if err := b.RestoreCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				resB := b.Run()
				if resA.Converged != resB.Converged || !slices.Equal(resA.Ranks, resB.Ranks) {
					t.Logf("%d docs on %d peers, seed %d: converged %v/%v, ranks differ after restore",
						docs, peers, seed, resA.Converged, resB.Converged)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckpointPreservesRemovalsAndPending(t *testing.T) {
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, 63))
	e, m, net := dynSetup(t, g, 10, Options{Epsilon: 1e-6}, 3)
	e.Run()
	if err := e.RemoveDocument(7); err != nil {
		t.Fatal(err)
	}
	// Leave the retraction un-propagated: checkpoint mid-change, and
	// restore over the edited topology.
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewPassEngine(graph.NewMutable(m.Snapshot()), net, nil, Options{Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !restored.removed[7] {
		t.Fatal("removal flag lost")
	}
	res := restored.Run()
	if !res.Converged {
		t.Fatal("did not converge after restore")
	}
	if res.Ranks[7] != 0 {
		t.Fatal("removed doc regained rank after restore")
	}
	// The retraction that was pending at checkpoint time completes.
	finish := e.Run()
	for i := range finish.Ranks {
		if math.Abs(finish.Ranks[i]-res.Ranks[i]) > 1e-9 {
			t.Fatalf("restored run diverged from original at %d: %v vs %v",
				i, res.Ranks[i], finish.Ranks[i])
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	g := graph.Cycle(5)
	e, _ := setup(t, g, 2, Options{}, 4)
	e.Run()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Garbage and truncation rejected.
	for _, input := range []string{"", "NOPE", string(full[:10]), string(full[:len(full)-5])} {
		e2, _ := setup(t, g, 2, Options{}, 4)
		if err := e2.RestoreCheckpoint(strings.NewReader(input)); err == nil {
			t.Errorf("accepted corrupt checkpoint of length %d", len(input))
		}
	}
	// Wrong graph size rejected.
	other := graph.Cycle(6)
	net := p2p.NewNetwork(2)
	net.AssignRandom(other, rng.New(1))
	e3, err := NewPassEngine(other, net, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.RestoreCheckpoint(bytes.NewReader(full)); err == nil {
		t.Error("accepted checkpoint for different graph size")
	}
	// Wrong damping rejected.
	net2 := p2p.NewNetwork(2)
	net2.AssignRandom(g, rng.New(1))
	e4, err := NewPassEngine(g, net2, nil, Options{Damping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e4.RestoreCheckpoint(bytes.NewReader(full)); err == nil {
		t.Error("accepted checkpoint with mismatched damping")
	}
	// A version 1 file: the same magic, its version word says what it is.
	v1 := slices.Clone(full)
	binary.LittleEndian.PutUint64(v1[len(checkpointMagic):], 1)
	e5, _ := setup(t, g, 2, Options{}, 4)
	if err := e5.RestoreCheckpoint(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version 1 checkpoint: err %v, want one naming version 1", err)
	}
}

// TestRefusedCheckpointLeavesEngineUntouched: a checkpoint cut at any
// byte, or one byte too long, is refused before anything is installed.
// The engine's ranks, pending documents and convergence, and the run
// after the refusal, are those of an engine that never saw the file.
func TestRefusedCheckpointLeavesEngineUntouched(t *testing.T) {
	if raceDetector {
		t.Skip("one-goroutine sweep skipped under -race; make ci runs it without")
	}
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(80, 65))
	opt := Options{Epsilon: 1e-6}
	src, _, _ := dynSetup(t, g, 4, opt, 6)
	src.Run()
	if err := src.RemoveDocument(3); err != nil { // removed and dirty sets, not empty
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	midRun := func() *PassEngine {
		e, _ := setup(t, g, 4, opt, 6)
		e.RunPass()
		e.RunPass()
		return e
	}
	ref := midRun()
	ranks, pending, converged := slices.Clone(ref.Ranks()), ref.pendingDocs(), ref.Converged()
	if pending == 0 {
		t.Fatal("nothing pending two passes in: the test no longer tests")
	}
	want := ref.Run()
	inputs := [][]byte{append(slices.Clone(file), 0)}
	for cut := range file {
		inputs = append(inputs, file[:cut])
	}
	for _, in := range inputs {
		e := midRun()
		if e.RestoreCheckpoint(bytes.NewReader(in)) == nil {
			t.Fatalf("accepted a %d-byte checkpoint of %d", len(in), len(file))
		}
		if !slices.Equal(e.Ranks(), ranks) || e.pendingDocs() != pending || e.Converged() != converged {
			t.Fatalf("refused %d-byte checkpoint changed the engine: %d pending documents, want %d", len(in), e.pendingDocs(), pending)
		}
		if got := e.Run(); !slices.Equal(got.Ranks, want.Ranks) || got.Passes != want.Passes || got.Counters != want.Counters || got.Converged != want.Converged {
			t.Fatalf("after a refused %d-byte checkpoint the run differs: %d passes, %+v; want %d, %+v", len(in), got.Passes, got.Counters, want.Passes, want.Counters)
		}
	}
}
