package dht

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dpr/internal/rng"
)

func buildRing(t testing.TB, n int) *Ring {
	t.Helper()
	r := NewRing()
	for i := 0; i < n; i++ {
		if _, err := r.AddPeer(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false}, // half-open: excludes a
		{10, 1, 10, true}, // includes b
		{11, 1, 10, false},
		{0, 250, 10, true}, // wrapped
		{251, 250, 10, true},
		{100, 250, 10, false},
		{7, 7, 7, true}, // full ring
	}
	for _, c := range cases {
		if got := between(c.x, c.a, c.b); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	if betweenOpen(10, 1, 10) {
		t.Error("betweenOpen includes endpoint")
	}
	if !betweenOpen(5, 1, 10) {
		t.Error("betweenOpen excludes interior")
	}
}

func TestGUIDs(t *testing.T) {
	a := GUIDFromString("doc-a")
	b := GUIDFromString("doc-b")
	if a == b {
		t.Fatal("distinct names produced equal GUIDs")
	}
	if a != GUIDFromString("doc-a") {
		t.Fatal("GUID not deterministic")
	}
	if GUIDFromUint64(1) == GUIDFromUint64(2) {
		t.Fatal("numeric GUIDs collided")
	}
	if len(a.String()) != 32 {
		t.Fatalf("GUID hex length = %d", len(a.String()))
	}
}

func TestAddPeerAndInvariants(t *testing.T) {
	r := buildRing(t, 20)
	if r.NumAlive() != 20 {
		t.Fatalf("NumAlive = %d", r.NumAlive())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddPeer("peer-0"); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestSingletonRing(t *testing.T) {
	r := buildRing(t, 1)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n := r.Nodes()[0]
	owner, hops, err := r.Lookup(12345, n)
	if err != nil {
		t.Fatal(err)
	}
	if owner != n || hops != 0 {
		t.Fatalf("singleton lookup: owner=%v hops=%d", owner, hops)
	}
	if !n.Owns(12345) {
		t.Fatal("singleton does not own the whole ring")
	}
}

func TestLookupMatchesOracle(t *testing.T) {
	r := buildRing(t, 50)
	gen := rng.New(99)
	start := r.Nodes()[0]
	for i := 0; i < 500; i++ {
		k := ID(gen.Uint64())
		owner, _, err := r.Lookup(k, start)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Owner(k)
		if owner != want {
			t.Fatalf("lookup(%016x) = %s, oracle says %s", uint64(k), owner.name, want.name)
		}
		for _, n := range r.Nodes() {
			if n.Owns(k) != (n == want) {
				t.Fatalf("%s.Owns(%016x) = %v, oracle owner %s", n.name, uint64(k), n.Owns(k), want.name)
			}
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := buildRing(t, 256)
	gen := rng.New(7)
	start := r.Nodes()[0]
	total := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		_, hops, err := r.Lookup(ID(gen.Uint64()), start)
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	avg := float64(total) / trials
	// Chord average is ~0.5*log2(P) = 4; allow generous slack.
	if avg > 2.5*math.Log2(256) {
		t.Fatalf("average hops %.1f too high for 256 peers", avg)
	}
	if avg < 0.5 {
		t.Fatalf("average hops %.1f suspiciously low; routing is cheating", avg)
	}
}

func TestPutGet(t *testing.T) {
	r := buildRing(t, 10)
	k := GUIDFromString("my-doc").ID()
	if _, err := r.Put(k, "payload"); err != nil {
		t.Fatal(err)
	}
	v, owner, _, err := r.Get(k, r.Nodes()[3])
	if err != nil {
		t.Fatal(err)
	}
	if v != "payload" {
		t.Fatalf("Get = %v", v)
	}
	if owner != r.Owner(k) {
		t.Fatal("Get returned wrong owner")
	}
	if _, _, _, err := r.Get(k+1, r.Nodes()[0]); err == nil {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestGracefulLeaveHandsOffKeys(t *testing.T) {
	r := buildRing(t, 8)
	gen := rng.New(3)
	keys := make([]ID, 200)
	for i := range keys {
		keys[i] = ID(gen.Uint64())
		if _, err := r.Put(keys[i], i); err != nil {
			t.Fatal(err)
		}
	}
	victim := r.Nodes()[2]
	if err := r.LeaveGraceful(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every key must still be retrievable.
	start := r.Nodes()[0]
	for i, k := range keys {
		v, _, _, err := r.Get(k, start)
		if err != nil {
			t.Fatalf("key %d lost after graceful leave: %v", i, err)
		}
		if v != i {
			t.Fatalf("key %d value corrupted", i)
		}
	}
}

func TestAbruptLeaveLosesOnlyVictimKeys(t *testing.T) {
	r := buildRing(t, 8)
	gen := rng.New(4)
	type placed struct {
		k     ID
		owner *Node
	}
	var items []placed
	for i := 0; i < 200; i++ {
		k := ID(gen.Uint64())
		o, err := r.Put(k, i)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, placed{k, o})
	}
	victim := r.Nodes()[5]
	if err := r.LeaveAbrupt(victim); err != nil {
		t.Fatal(err)
	}
	start := r.Nodes()[0]
	for i, it := range items {
		_, _, _, err := r.Get(it.k, start)
		if it.owner == victim && err == nil {
			t.Fatalf("key %d on failed peer still reachable", i)
		}
		if it.owner != victim && err != nil {
			t.Fatalf("key %d on surviving peer lost: %v", i, err)
		}
	}
	// Rejoin restores the keys the victim kept.
	if err := r.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.owner == victim {
			if _, _, _, err := r.Get(it.k, start); err != nil {
				t.Fatalf("key %d not restored after rejoin: %v", i, err)
			}
		}
		_ = i
	}
}

func TestJoinTransfersKeys(t *testing.T) {
	r := buildRing(t, 4)
	gen := rng.New(5)
	keys := make([]ID, 300)
	for i := range keys {
		keys[i] = ID(gen.Uint64())
		if _, err := r.Put(keys[i], i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i < 12; i++ {
		if _, err := r.AddPeer(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	start := r.Nodes()[0]
	for i, k := range keys {
		v, owner, _, err := r.Get(k, start)
		if err != nil {
			t.Fatalf("key %d lost after joins: %v", i, err)
		}
		if v != i {
			t.Fatalf("key %d corrupted", i)
		}
		if owner != r.Owner(k) {
			t.Fatalf("key %d stored at %s, owner is %s", i, owner.name, r.Owner(k).name)
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	r := buildRing(t, 3)
	n := r.Nodes()[0]
	if err := r.LeaveAbrupt(n); err != nil {
		t.Fatal(err)
	}
	if err := r.LeaveAbrupt(n); err == nil {
		t.Fatal("double leave accepted")
	}
	if err := r.LeaveGraceful(n); err == nil {
		t.Fatal("graceful leave of dead node accepted")
	}
	if err := r.Rejoin(n); err != nil {
		t.Fatal(err)
	}
	if err := r.Rejoin(n); err == nil {
		t.Fatal("double rejoin accepted")
	}
	other := &Node{id: 42, name: "alien", alive: false}
	if err := r.Rejoin(other); err == nil {
		t.Fatal("rejoin of non-member accepted")
	}
}

func TestLookupFromDeadNode(t *testing.T) {
	r := buildRing(t, 3)
	n := r.Nodes()[1]
	if err := r.LeaveAbrupt(n); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Lookup(1, n); err == nil {
		t.Fatal("lookup from dead node succeeded")
	}
	if _, _, err := r.Lookup(1, nil); err == nil {
		t.Fatal("lookup from nil node succeeded")
	}
}

func TestStabilizeRoundRepairsAfterJoin(t *testing.T) {
	r := buildRing(t, 16)
	// Manually corrupt some fingers, then let stabilization fix them.
	for _, n := range r.Nodes() {
		for b := 0; b < fingerBits; b += 3 {
			n.fingers[b] = nil
		}
	}
	for round := 0; round < fingerBits; round++ {
		r.StabilizeRound(round)
	}
	gen := rng.New(6)
	start := r.Nodes()[0]
	for i := 0; i < 200; i++ {
		k := ID(gen.Uint64())
		owner, _, err := r.Lookup(k, start)
		if err != nil {
			t.Fatal(err)
		}
		if owner != r.Owner(k) {
			t.Fatal("lookup wrong after stabilization")
		}
	}
}

// Property: for any set of peer names and any key, routed lookup
// agrees with the brute-force oracle.
func TestLookupOracleProperty(t *testing.T) {
	f := func(seed uint64, key uint64) bool {
		gen := rng.New(seed)
		r := NewRing()
		n := 1 + gen.Intn(30)
		for i := 0; i < n; i++ {
			if _, err := r.AddPeer(fmt.Sprintf("p%d-%d", seed, i)); err != nil {
				return false
			}
		}
		start := r.Nodes()[gen.Intn(n)]
		owner, _, err := r.Lookup(ID(key), start)
		return err == nil && owner == r.Owner(ID(key))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup500Peers(b *testing.B) {
	r := buildRing(b, 500)
	gen := rng.New(1)
	start := r.Nodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Lookup(ID(gen.Uint64()), start); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddPeer(b *testing.B) {
	r := NewRing()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.AddPeer(fmt.Sprintf("bench-peer-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMassChurnSurvivors(t *testing.T) {
	r := buildRing(t, 64)
	gen := rng.New(71)
	// Half the ring fails abruptly.
	var victims []*Node
	for i, n := range append([]*Node(nil), r.Nodes()...) {
		if i%2 == 0 {
			victims = append(victims, n)
		}
	}
	for _, v := range victims {
		if err := r.LeaveAbrupt(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Survivors still resolve every key correctly.
	start := r.Nodes()[0]
	for i := 0; i < 300; i++ {
		k := ID(gen.Uint64())
		owner, _, err := r.Lookup(k, start)
		if err != nil {
			t.Fatal(err)
		}
		if owner != r.Owner(k) {
			t.Fatal("lookup wrong after mass churn")
		}
	}
	// Everyone rejoins; the ring is whole again.
	for _, v := range victims {
		if err := r.Rejoin(v); err != nil {
			t.Fatal(err)
		}
	}
	if r.NumAlive() != 64 {
		t.Fatalf("NumAlive = %d after rejoin", r.NumAlive())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of joins and abrupt leaves (keeping at
// least one node), lookups from any survivor agree with the oracle.
func TestChurnSequenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		gen := rng.New(seed)
		r := NewRing()
		var members []*Node
		for i := 0; i < 8; i++ {
			n, err := r.AddPeer(fmt.Sprintf("cs-%d-%d", seed, i))
			if err != nil {
				return false
			}
			members = append(members, n)
		}
		for step := 0; step < 30; step++ {
			switch gen.Intn(3) {
			case 0:
				n, err := r.AddPeer(fmt.Sprintf("cs-%d-extra-%d", seed, step))
				if err != nil {
					return false
				}
				members = append(members, n)
			case 1:
				if r.NumAlive() > 1 {
					alive := r.Nodes()
					if err := r.LeaveAbrupt(alive[gen.Intn(len(alive))]); err != nil {
						return false
					}
				}
			case 2:
				// Rejoin a random dead member if any.
				var dead []*Node
				for _, m := range members {
					if !m.Alive() {
						dead = append(dead, m)
					}
				}
				if len(dead) > 0 {
					if err := r.Rejoin(dead[gen.Intn(len(dead))]); err != nil {
						return false
					}
				}
			}
		}
		if r.CheckInvariants() != nil {
			return false
		}
		start := r.Nodes()[gen.Intn(r.NumAlive())]
		for i := 0; i < 20; i++ {
			k := ID(gen.Uint64())
			owner, _, err := r.Lookup(k, start)
			if err != nil || owner != r.Owner(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
