package wire

import (
	"fmt"
	"net"
	"time"

	"dpr/internal/p2p"
)

// Transport sits between peers and the operating system's network
// stack: every outbound connection a peer opens goes through Dial. The indirection exists
// so tests can substitute a FaultTransport that drops, delays,
// duplicates and resets connections or partitions peer pairs — the
// failure schedules of the paper's dynamic-network protocol — while
// production code uses the real dialer.
//
// from and to identify the dialing and target peers so fault
// injectors can scope failures to specific pairs.
type Transport interface {
	Dial(from, to p2p.PeerID, addr string) (net.Conn, error)
}

// dialTimeout bounds connection establishment for the real dialer.
const dialTimeout = 5 * time.Second

// tcpTransport is the production Transport: a plain TCP dialer.
type tcpTransport struct{}

func (tcpTransport) Dial(_, _ p2p.PeerID, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// TCPDialer returns the production Transport backed by net.Dial.
func TCPDialer() Transport { return tcpTransport{} }

// roundTrip is the protocol's request/response exchange: dial addr as
// from→to, bound the whole exchange by timeout, write one req frame and
// read back one frame, which must be of type resp. Its payload is
// returned.
func roundTrip(tr Transport, from, to p2p.PeerID, addr string, timeout time.Duration, req byte, payload []byte, resp byte) ([]byte, error) {
	conn, err := tr.Dial(from, to, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := writeFrame(conn, req, payload); err != nil {
		return nil, err
	}
	typ, reply, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if typ != resp {
		return nil, fmt.Errorf("wire: frame %c answered with %c, want %c", req, typ, resp)
	}
	return reply, nil
}
