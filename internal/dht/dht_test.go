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
	a := GUIDFromUint64(1)
	if a == GUIDFromUint64(2) {
		t.Fatal("numeric GUIDs collided")
	}
	if a != GUIDFromUint64(1) {
		t.Fatal("GUID not deterministic")
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

// placeAtOwners stores n random keys, each at its owner, with its
// index as the value.
func placeAtOwners(t *testing.T, r *Ring, seed uint64, n int) []ID {
	t.Helper()
	gen := rng.New(seed)
	keys := make([]ID, n)
	for i := range keys {
		keys[i] = ID(gen.Uint64())
		if err := r.PlaceKey(r.Owner(keys[i]), keys[i], i); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// checkKeysAtOwners: every key is held, with its value, by the node the
// oracle says owns it, and a lookup from the first live node reaches it.
func checkKeysAtOwners(t *testing.T, r *Ring, keys []ID) {
	t.Helper()
	start := r.Nodes()[0]
	for i, k := range keys {
		owner, _, err := r.Lookup(k, start)
		if err != nil {
			t.Fatal(err)
		}
		if owner != r.Owner(k) {
			t.Fatalf("key %d routed to %s, owner is %s", i, owner.name, r.Owner(k).name)
		}
		if v, ok := owner.keys[k]; !ok || v != i {
			t.Fatalf("key %d not held by its owner %s (value %v, present %v)", i, owner.name, v, ok)
		}
	}
}

func TestGracefulLeaveHandsOffKeys(t *testing.T) {
	r := buildRing(t, 8)
	keys := placeAtOwners(t, r, 3, 200)
	victim := r.Nodes()[2]
	if err := r.LeaveGraceful(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(victim.keys) != 0 {
		t.Fatalf("departed node still holds %d keys", len(victim.keys))
	}
	checkKeysAtOwners(t, r, keys)
}

func TestJoinTransfersKeys(t *testing.T) {
	r := buildRing(t, 4)
	keys := placeAtOwners(t, r, 5, 300)
	for i := 4; i < 12; i++ {
		if _, err := r.AddPeer(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkKeysAtOwners(t, r, keys)
}

func TestLeaveErrors(t *testing.T) {
	r := buildRing(t, 3)
	n := r.Nodes()[0]
	if err := r.LeaveGraceful(n); err != nil {
		t.Fatal(err)
	}
	if err := r.LeaveGraceful(n); err == nil {
		t.Fatal("double leave accepted")
	}
	if err := r.PlaceKey(n, 1, nil); err == nil {
		t.Fatal("key placed at a departed node")
	}
	if _, err := r.AddPeer(n.name); err == nil {
		t.Fatal("departed node's name reused")
	}
	other := &Node{id: 42, name: "alien", alive: true}
	if err := r.LeaveGraceful(other); err == nil {
		t.Fatal("leave of non-member accepted")
	}
}

func TestLookupFromDeadNode(t *testing.T) {
	r := buildRing(t, 3)
	n := r.Nodes()[1]
	if err := r.LeaveGraceful(n); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Lookup(1, n); err == nil {
		t.Fatal("lookup from dead node succeeded")
	}
	if _, _, err := r.Lookup(1, nil); err == nil {
		t.Fatal("lookup from nil node succeeded")
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
	lookups := func(when string) {
		t.Helper()
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		start := r.Nodes()[0]
		for i := 0; i < 300; i++ {
			k := ID(gen.Uint64())
			owner, _, err := r.Lookup(k, start)
			if err != nil {
				t.Fatal(err)
			}
			if owner != r.Owner(k) {
				t.Fatalf("lookup wrong %s", when)
			}
		}
	}
	// Half the ring leaves.
	for i, n := range append([]*Node(nil), r.Nodes()...) {
		if i%2 == 0 {
			if err := r.LeaveGraceful(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	lookups("after half the ring left")
	// As many new peers join; the ring is whole again.
	for i := 0; i < 32; i++ {
		if _, err := r.AddPeer(fmt.Sprintf("peer-new-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.NumAlive() != 64 {
		t.Fatalf("NumAlive = %d after the joins", r.NumAlive())
	}
	lookups("after the joins")
}

// Property: after any sequence of joins and leaves (keeping at least
// one node), lookups from any survivor agree with the oracle.
func TestChurnSequenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		gen := rng.New(seed)
		r := NewRing()
		for i := 0; i < 8; i++ {
			if _, err := r.AddPeer(fmt.Sprintf("cs-%d-%d", seed, i)); err != nil {
				return false
			}
		}
		for step := 0; step < 30; step++ {
			if gen.Intn(2) == 0 {
				if _, err := r.AddPeer(fmt.Sprintf("cs-%d-extra-%d", seed, step)); err != nil {
					return false
				}
			} else if r.NumAlive() > 1 {
				alive := r.Nodes()
				if err := r.LeaveGraceful(alive[gen.Intn(len(alive))]); err != nil {
					return false
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
