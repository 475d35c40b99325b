package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/wire"
)

// frameSizes are the message sizes the framing tests send: empty, one
// byte, just under a page, and a 1 MiB object frame.
var frameSizes = []int{0, 1, 4095, 1 << 20}

func testMsg(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*7 + 3)
	}
	return msg
}

// TestTCPSendFraming reads back the bytes Send puts on the wire: over a
// loopback socket (one writev) and over net.Pipe (no writev, so the
// prefix and the body are written in turn) they must be exactly
// wire.AppendFrame's framing of the message.
func TestTCPSendFraming(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer server.Close()
	pipeLocal, pipeRemote := net.Pipe()
	defer pipeRemote.Close()

	for _, tc := range []struct {
		name        string
		local, peer net.Conn
	}{
		{"loopback", client, server},
		{"pipe", pipeLocal, pipeRemote},
	} {
		c := WrapNetConn(tc.local)
		for _, n := range frameSizes {
			msg := testMsg(n)
			want, err := wire.AppendFrame(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			// net.Pipe is unbuffered: the read must run beside the send.
			sent := make(chan error, 1)
			go func() { sent <- c.Send(msg) }()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(tc.peer, got); err != nil {
				t.Fatalf("%s, %d bytes: reading frame: %v", tc.name, n, err)
			}
			if err := <-sent; err != nil {
				t.Fatalf("%s, %d bytes: Send: %v", tc.name, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d bytes: wire bytes differ from wire.AppendFrame", tc.name, n)
			}
		}
		c.Close()
	}
}

// recordConn is a net.Conn that keeps every slice Write is handed and
// writes nothing. It has no writev, so Send hands it the length prefix
// and the body one after the other.
type recordConn struct {
	net.Conn
	writes [][]byte
}

func (r *recordConn) Write(b []byte) (int, error) {
	r.writes = append(r.writes, b)
	return len(b), nil
}

// TestTCPSendNoCopy: the body reaches the socket as the caller's own
// slice, not a copy assembled into a frame buffer, and an oversized
// message is refused before anything is written.
func TestTCPSendNoCopy(t *testing.T) {
	rc := &recordConn{}
	c := WrapNetConn(rc)
	msg := testMsg(4095)
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	if len(rc.writes) != 2 {
		t.Fatalf("Send made %d writes, want the prefix and the body", len(rc.writes))
	}
	if body := rc.writes[1]; len(body) != len(msg) || &body[0] != &msg[0] {
		t.Fatal("the body write is not the caller's slice: Send copied the message")
	}

	rc.writes = nil
	if err := c.Send(make([]byte, wire.MaxFrameSize+1)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized Send: err = %v, want ErrFrameTooLarge", err)
	}
	if len(rc.writes) != 0 {
		t.Fatalf("oversized Send wrote %d times, want nothing", len(rc.writes))
	}
}

// TestTCPSendAllocs: the prefix and the iovec live in the conn, so a
// small-message send over a real socket allocates nothing.
func TestTCPSendAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	msg := testMsg(64)
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
	})
	c.Close()
	<-drained
	if allocs != 0 {
		t.Fatalf("a 64-byte Send allocates %.1f times, want 0", allocs)
	}
}
