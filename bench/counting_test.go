package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"dpr/internal/rng"
	"dpr/internal/wire"
)

// TestCountingTransport dials a loopback listener that answers every
// request with a reply of a different size, and checks that both
// directions arrive unaltered and that the totals are exactly what was
// written on each side.
func TestCountingTransport(t *testing.T) {
	for _, timed := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1)
		requests := make([][]byte, 20)
		replies := make([][]byte, len(requests))
		var wantWritten, wantRead uint64
		for i := range requests {
			requests[i] = randomBytes(r, 1+r.Intn(9000))
			replies[i] = randomBytes(r, 1+r.Intn(300))
			wantWritten += uint64(len(requests[i]))
			wantRead += uint64(len(replies[i]))
		}

		served := make(chan error, 1) // the server reports once
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				served <- err
				return
			}
			defer conn.Close()
			for i, want := range requests {
				got := make([]byte, len(want))
				if _, err := io.ReadFull(conn, got); err != nil {
					served <- err
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("timed=%t: request %d altered in transit", timed, i)
				}
				if _, err := conn.Write(replies[i]); err != nil {
					served <- err
					return
				}
			}
			served <- nil
		}()

		ct := newCountingTransport(wire.TCPDialer(), timed)
		conn, err := ct.Dial(0, 1, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		for i, req := range requests {
			if n, err := conn.Write(req); err != nil || n != len(req) {
				t.Fatalf("timed=%t: write %d: n=%d err=%v", timed, i, n, err)
			}
			got := make([]byte, len(replies[i]))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatalf("timed=%t: read %d: %v", timed, i, err)
			}
			if !bytes.Equal(got, replies[i]) {
				t.Errorf("timed=%t: reply %d altered in transit", timed, i)
			}
		}
		conn.Close()
		if err := <-served; err != nil {
			t.Fatalf("timed=%t: server: %v", timed, err)
		}
		ln.Close()

		if got := ct.bytesWritten.Load(); got != wantWritten {
			t.Errorf("timed=%t: bytesWritten = %d, want %d", timed, got, wantWritten)
		}
		if got := ct.bytesRead.Load(); got != wantRead {
			t.Errorf("timed=%t: bytesRead = %d, want %d", timed, got, wantRead)
		}
		if got := ct.bytesTotal(); got != wantWritten+wantRead {
			t.Errorf("timed=%t: bytesTotal = %d, want %d", timed, got, wantWritten+wantRead)
		}
		if got := ct.writes.Load(); got != uint64(len(requests)) {
			t.Errorf("timed=%t: writes = %d, want %d", timed, got, len(requests))
		}
		if got := ct.dials.Load(); got != 1 {
			t.Errorf("timed=%t: dials = %d, want 1", timed, got)
		}
		clocked := ct.writeBusyNs.Load() > 0 && ct.readWaitNs.Load() > 0 && ct.dialMsP50() > 0
		if clocked != timed {
			t.Errorf("timed=%t: per-call clocks ran = %t", timed, clocked)
		}
	}
}

func randomBytes(r *rng.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

// A failed dial is counted and hands back no connection.
func TestCountingTransportDialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ct := newCountingTransport(wire.TCPDialer(), true)
	if conn, err := ct.Dial(0, 1, addr); err == nil {
		conn.Close()
		t.Fatal("dial to a closed listener succeeded")
	}
	if got := ct.dials.Load(); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
}
