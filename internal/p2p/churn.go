package p2p

import (
	"fmt"

	"dpr/internal/rng"
)

// Churn drives peer availability between passes. The paper's dynamic
// experiments (section 4.3, Table 1 columns 3-4) keep a fixed fraction
// of randomly selected peers present at any given time, re-drawing the
// absent set at the end of every iteration.
type Churn struct {
	net          *Network
	availability float64
	r            *rng.Rand
}

// NewChurn creates a churn driver keeping availability (0,1] of peers
// online each pass.
func NewChurn(net *Network, availability float64, r *rng.Rand) (*Churn, error) {
	if availability <= 0 || availability > 1 {
		return nil, fmt.Errorf("p2p: availability %v outside (0,1]", availability)
	}
	return &Churn{net: net, availability: availability, r: r}, nil
}

// Step re-draws the online set: exactly round(availability*P) peers
// stay present, the rest leave until a later step brings them back.
func (c *Churn) Step() {
	p := c.net.NumPeers()
	up := int(c.availability*float64(p) + 0.5)
	if up < 1 {
		up = 1 // the network never empties completely
	}
	for i := 0; i < p; i++ {
		c.net.SetOnline(PeerID(i), false)
	}
	for _, i := range c.r.Sample(p, up) {
		c.net.SetOnline(PeerID(i), true)
	}
}
