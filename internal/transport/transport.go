// Package transport provides the message channels the protocol engines
// run over: an in-memory duplex pipe and named network for tests and
// experiments, a TCP transport for the real daemons, a fault-injection
// wrapper (drop/delay/duplicate) standing in for an unreliable
// Internet, and an interceptor wrapper that gives the attack package a
// programmable man-in-the-middle position.
//
// The paper assumes SSL-protected channels per session (§2); here the
// channel is a plain ordered message pipe, and the §5 adversaries are
// modeled explicitly by Intercept — which is strictly stronger than
// assuming TLS, since the experiments let the attacker read and rewrite
// traffic and then show the protocol's evidence layer still holds.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned from operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is an ordered, reliable, bidirectional message channel.
// Implementations must be safe for one concurrent sender and one
// concurrent receiver.
//
// Buffer ownership:
//   - Send never retains msg past its return: the pipe copies it, the
//     TCP transport writes it to the socket from the caller's slice,
//     so the caller keeps ownership and may immediately reuse or
//     recycle the slice.
//   - Recv transfers ownership of the returned slice to the caller. It
//     stays valid indefinitely; a caller that is done with it MAY hand
//     it to Recycle to return it to the shared buffer pool (that is
//     optional — unrecycled buffers are ordinary garbage — but the
//     slice must not be used after recycling).
type Conn interface {
	// Send transmits one message. Send is done with the slice when it
	// returns; the caller may reuse it.
	Send(msg []byte) error
	// Recv blocks until a message arrives or the connection closes, in
	// which case it returns ErrClosed (or the underlying error). The
	// returned buffer is owned by the caller (see ownership rules above).
	Recv() ([]byte, error)
	// Close tears the connection down, unblocking pending Recvs on both
	// ends.
	Close() error
}

// DeadlineConn is implemented by Conns whose blocking operations can be
// bounded by an absolute deadline (TCP). Protocol engines map a
// context deadline onto the connection through this interface; the
// in-memory pipe does not implement it because in-memory waits are
// already interruptible through the engines' context-aware receive.
type DeadlineConn interface {
	Conn
	// SetDeadline bounds pending and future Send/Recv calls. The zero
	// time clears the deadline.
	SetDeadline(t time.Time) error
}

// Dialer opens a connection to a named address, honoring the context
// for cancellation while connecting. Both the in-memory Network and
// the TCP transport satisfy this shape via method values / wrappers.
type Dialer func(ctx context.Context, addr string) (Conn, error)

// pipeEnd is one direction of an in-memory duplex pipe.
type pipeEnd struct {
	in  *msgQueue
	out *msgQueue
}

// Pipe returns the two ends of an in-memory duplex connection with the
// given per-direction buffer capacity (0 means a generous default).
func Pipe(capacity int) (Conn, Conn) {
	if capacity <= 0 {
		capacity = 1024
	}
	ab := newMsgQueue(capacity)
	ba := newMsgQueue(capacity)
	return &pipeEnd{in: ba, out: ab}, &pipeEnd{in: ab, out: ba}
}

// Send copies msg into a pool-backed buffer (the Conn contract requires
// a copy — the sender may reuse its slice immediately; the receiver
// owns the copy and may Recycle it).
func (p *pipeEnd) Send(msg []byte) error {
	buf := grab(len(msg))
	copy(buf, msg)
	if err := p.out.push(buf); err != nil {
		Recycle(buf)
		return err
	}
	return nil
}
func (p *pipeEnd) Recv() ([]byte, error) { return p.in.pop() }
func (p *pipeEnd) Close() error {
	p.in.close()
	p.out.close()
	return nil
}

// msgQueue is a closable FIFO of messages.
type msgQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    [][]byte
	cap    int
	closed bool
}

func newMsgQueue(capacity int) *msgQueue {
	q := &msgQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *msgQueue) push(msg []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) >= q.cap && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	q.buf = append(q.buf, msg)
	q.cond.Broadcast()
	return nil
}

func (q *msgQueue) pop() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return nil, ErrClosed
	}
	// Shift rather than reslice: q.buf[1:] would shed a slot of capacity
	// per message, so a queue that drains after every message would
	// reallocate on every push.
	msg := q.buf[0]
	n := copy(q.buf, q.buf[1:])
	q.buf[n] = nil
	q.buf = q.buf[:n]
	q.cond.Broadcast()
	return msg, nil
}

func (q *msgQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes.
	Accept() (Conn, error)
	// Close stops the listener.
	Close() error
	// Addr returns the address peers dial.
	Addr() string
}

// Network is an in-memory address space: services Listen on names like
// "bob" or "ttp", clients Dial those names. It lets whole multi-party
// protocol deployments (Alice, Bob, TTP, Arbitrator) run in one process
// deterministically.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{listeners: make(map[string]*memListener)}
}

// Listen registers addr and returns its listener.
func (n *Network) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &memListener{addr: addr, backlog: make(chan Conn, 64), network: n}
	n.listeners[addr] = l
	return l, nil
}

// DialContext connects to a listening address. The in-memory dial is
// instantaneous, so the context is only consulted for prior
// cancellation; it exists to satisfy the Dialer shape.
func (n *Network) DialContext(ctx context.Context, addr string) (Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return n.Dial(addr)
}

// Dial connects to a listening address.
func (n *Network) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := Pipe(0)
	select {
	case l.backlog <- server:
		return client, nil
	default:
		client.Close()
		return nil, fmt.Errorf("transport: backlog full at %q", addr)
	}
}

func (n *Network) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type memListener struct {
	addr      string
	backlog   chan Conn
	network   *Network
	closeOnce sync.Once
	closed    chan struct{}
	initOnce  sync.Once
}

func (l *memListener) closedCh() chan struct{} {
	l.initOnce.Do(func() { l.closed = make(chan struct{}) })
	return l.closed
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closedCh():
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closedCh())
		l.network.remove(l.addr)
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }
