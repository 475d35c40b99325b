package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// tcpConn adapts a net.Conn to the message-oriented Conn interface
// using wire framing.
type tcpConn struct {
	nc     net.Conn
	sendMu sync.Mutex
	// hdr, vec and iov are Send's scratch, guarded by sendMu. Kept in
	// the conn so that a send allocates nothing.
	hdr     [4]byte
	vec     [2][]byte
	iov     net.Buffers
	recvMu  sync.Mutex
	closeMu sync.Once
}

// WrapNetConn frames an arbitrary net.Conn as a message Conn.
func WrapNetConn(nc net.Conn) Conn { return &tcpConn{nc: nc} }

// Send writes the length prefix and msg with one vectored write
// (writev on a TCP socket; conns without it get the two parts in
// order): one syscall per message, and the body goes to the kernel
// from the caller's slice, never copied into a frame buffer.
func (c *tcpConn) Send(msg []byte) error {
	if len(msg) > wire.MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, len(msg))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(msg)))
	c.vec = [2][]byte{c.hdr[:], msg}
	c.iov = c.vec[:]
	if len(msg) == 0 {
		// A zero-length write is not a no-op on every conn: net.Pipe
		// blocks it until the peer's next Read.
		c.iov = c.vec[:1]
	}
	n, err := c.iov.WriteTo(c.nc)
	// WriteTo drops what it wrote from iov; clear the rest so the conn
	// does not keep msg reachable once Send returns.
	c.vec = [2][]byte{}
	if err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	obsFramesSent.Inc()
	obsBytesSent.Add(n)
	return nil
}

// Recv reads the frame body into a pool-backed buffer; per the Conn
// contract the caller owns it and may Recycle when done.
func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	msg, err := wire.ReadFrameInto(c.nc, grab)
	if err == nil {
		obsFramesRecv.Inc()
		obsBytesRecv.Add(int64(4 + len(msg)))
	}
	return msg, err
}

func (c *tcpConn) Close() error {
	var err error
	c.closeMu.Do(func() { err = c.nc.Close() })
	return err
}

// SetDeadline bounds pending and future Send/Recv calls; tcpConn thus
// satisfies DeadlineConn so protocol engines can map context deadlines
// onto the socket.
func (c *tcpConn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// DialTCP connects to a TCP address and frames it.
func DialTCP(addr string) (Conn, error) {
	return DialTCPContext(context.Background(), addr)
}

// DialTCPContext connects to a TCP address honoring ctx for
// cancellation and deadline while the connection is established.
func DialTCPContext(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return WrapNetConn(nc), nil
}

// tcpListener adapts net.Listener.
type tcpListener struct{ nl net.Listener }

// ListenTCP listens on a TCP address ("127.0.0.1:0" picks a free port;
// read the actual address back with Addr).
func ListenTCP(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addr, err)
	}
	return &tcpListener{nl: nl}, nil
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return WrapNetConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }
