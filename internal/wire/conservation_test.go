package wire

import (
	"math"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/telemetry"
)

// assertRegistryConservation audits the quiescent cluster's merged
// telemetry registry against the two conservation laws the system
// promises:
//
//  1. update conservation — every delta shipped between peers was
//     folded exactly once (wire_delta_shipped == wire_delta_folded),
//  2. mass conservation — the per-peer rank-mass gauges sum to the
//     total rank actually held in the final ranks, so no mass
//     evaporated across crashes, migrations, or reroutes.
//
// Both comparisons allow for floating-point association order: the
// registry accumulates in arrival order, the ranks sum in index order.
// It is the reusable form of the invariant: any test that ends with a
// quiescent cluster can call it with the cluster's TelemetrySnapshot.
func assertRegistryConservation(t *testing.T, snap telemetry.Snapshot, ranks []float64) {
	t.Helper()
	shipped := snap.FloatValue("wire_delta_shipped")
	folded := snap.FloatValue("wire_delta_folded")
	if diff := math.Abs(shipped - folded); diff > 1e-6*math.Max(1, math.Abs(shipped)) {
		t.Fatalf("registry delta mass not conserved: shipped %v folded %v (diff %v)",
			shipped, folded, diff)
	}
	if shipped <= 0 {
		t.Fatalf("registry shows no shipped mass (%v): instruments not wired through", shipped)
	}
	total := 0.0
	for _, r := range ranks {
		total += r
	}
	mass := snap.GaugeValue("wire_rank_mass")
	if diff := math.Abs(mass - total); diff > 1e-6*math.Max(1, total) {
		t.Fatalf("registry rank mass %v != sum of final ranks %v (diff %v)", mass, total, diff)
	}
}

// TestTelemetryConservationUnderFaults is the observability answer to
// the chaos suite: random power-law graphs run through the full
// p2p+wire stack with lossy transport faults and one crash/restart
// cycle, and the conservation invariants are asserted from the
// telemetry registry alone — the same numbers an operator would scrape
// from /metrics, not the internal result struct.
func TestTelemetryConservationUnderFaults(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	for _, seed := range []uint64{17, 303} {
		g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(500, seed))
		ft := NewFaultTransport(nil, FaultConfig{
			Seed:      seed,
			DropProb:  0.04,
			ResetProb: 0.04,
			DelayProb: 0.05,
			MaxDelay:  time.Millisecond,
		})
		c, err := NewCluster(g, ClusterConfig{Peers: 5, Epsilon: 1e-6, Seed: seed, Transport: ft})
		if err != nil {
			t.Fatal(err)
		}

		type runOut struct {
			res ClusterResult
			err error
		}
		resCh := make(chan runOut, 1)
		go func() {
			res, err := c.Run(120 * time.Second)
			resCh <- runOut{res, err}
		}()

		// One kill/restart cycle mid-flight: the victim's registry is
		// retained across the crash and its counters restore from the
		// checkpoint, so the merged snapshot must still balance.
		time.Sleep(10 * time.Millisecond)
		if err := c.Kill(2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := c.Restart(2); err != nil {
			t.Fatal(err)
		}

		out := <-resCh
		if out.err != nil {
			t.Fatal(out.err)
		}
		assertRanksMatch(t, g, out.res.Ranks, 1e-3)
		assertRegistryConservation(t, c.TelemetrySnapshot(), out.res.Ranks)

		// The registry and the public result struct are two views of
		// the same instruments now; they must agree exactly.
		snap := c.TelemetrySnapshot()
		if got := snap.FloatValue("wire_delta_shipped"); got != out.res.DeltaShipped {
			t.Fatalf("registry shipped %v != result shipped %v", got, out.res.DeltaShipped)
		}
		if got := snap.CounterValue("wire_retries"); got != out.res.Retries {
			t.Fatalf("registry retries %d != result retries %d", got, out.res.Retries)
		}
		c.Close()
	}
}
