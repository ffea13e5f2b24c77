// Package dht implements the distributed-hash-table substrate the
// paper assumes (section 2.1): a Chord-style ring with consistent
// hashing, finger-table routing with O(log P) lookup hops, peer
// join/leave with key handoff, and pointer repair. Documents are
// identified by GUIDs; each document's GUID hashes to a position on
// the ring, and the peer succeeding that position owns the document
// reference.
//
// The ring is simulated in-process, but nodes route only through the
// knowledge a real Chord node would have (successors and fingers), so
// lookup hop counts are faithful. Those hop counts are what give the
// IP-caching optimization of the paper's section 3.2 its payoff.
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// ID is a position on the 64-bit identifier ring.
type ID uint64

// GUID is a document's 128-bit global unique identifier (the paper
// assumes CAN/Pastry/Chord-style GUIDs of this size; the message-size
// accounting in section 4.6 uses 128-bit GUIDs too).
type GUID [16]byte

// GUIDFromUint64 derives a GUID from a numeric document id; used by
// the simulator where documents are dense integers.
func GUIDFromUint64(v uint64) GUID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	sum := sha1.Sum(buf[:])
	var g GUID
	copy(g[:], sum[:16])
	return g
}

// Ring position of the GUID: its first 8 bytes.
func (g GUID) ID() ID { return ID(binary.BigEndian.Uint64(g[:8])) }

// String renders the GUID in hex.
func (g GUID) String() string { return fmt.Sprintf("%x", g[:]) }

// PeerIDFromName derives a ring position for a peer from its name
// (e.g. an address), mirroring Chord's hash-of-IP placement.
func PeerIDFromName(name string) ID {
	sum := sha1.Sum([]byte(name))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// between reports whether x lies in the half-open ring interval
// (a, b]. On a ring, the interval wraps when b <= a.
func between(x, a, b ID) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // wrapped (or full ring when a == b)
}

// betweenOpen reports whether x lies in the open interval (a, b).
func betweenOpen(x, a, b ID) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b
}
