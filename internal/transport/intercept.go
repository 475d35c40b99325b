package transport

import "sync"

// Direction labels which way an intercepted message was traveling.
type Direction int

// Directions of intercepted traffic.
const (
	ClientToServer Direction = iota
	ServerToClient
)

// String names the direction for transcripts.
func (d Direction) String() string {
	if d == ClientToServer {
		return "client→server"
	}
	return "server→client"
}

// Interceptor decides the fate of each message crossing a MITM
// position. Returning (nil, false) drops the message; returning a
// slice forwards that (possibly rewritten) message. The interceptor
// may also call Inject on the tap to originate fresh messages.
type Interceptor func(dir Direction, msg []byte) (fwd []byte, deliver bool)

// Tap is a programmable man-in-the-middle splice between two
// connections. It gives the §5 adversaries their network position: the
// attacker "can intercept all messages going between the two victims
// and inject new ones".
type Tap struct {
	client Conn // toward the client (we act as server)
	server Conn // toward the server (we act as client)

	interceptor Interceptor // fixed at NewTap

	mu        sync.Mutex
	log       []TapRecord
	done      chan struct{}
	closeOnce sync.Once
}

// TapRecord is one observed message.
type TapRecord struct {
	Dir     Direction
	Msg     []byte
	Dropped bool
	Rewrote bool
}

// NewTap splices a relay between the given client-side and server-side
// connections and starts forwarding. With a nil interceptor every
// message passes through unmodified (a passive eavesdropper).
func NewTap(clientSide, serverSide Conn, ic Interceptor) *Tap {
	t := &Tap{client: clientSide, server: serverSide, interceptor: ic, done: make(chan struct{})}
	go t.relay(ClientToServer, t.client, t.server)
	go t.relay(ServerToClient, t.server, t.client)
	return t
}

func (t *Tap) relay(dir Direction, from, to Conn) {
	for {
		msg, err := from.Recv()
		if err != nil {
			t.Close()
			return
		}
		fwd, deliver := msg, true
		if t.interceptor != nil {
			fwd, deliver = t.interceptor(dir, msg)
		}
		rec := TapRecord{Dir: dir, Msg: append([]byte(nil), msg...), Dropped: !deliver}
		if deliver && string(fwd) != string(msg) {
			rec.Rewrote = true
		}
		t.mu.Lock()
		t.log = append(t.log, rec)
		t.mu.Unlock()

		if deliver {
			if err := to.Send(fwd); err != nil {
				t.Close()
				return
			}
		}
	}
}

// Inject originates a message from the MITM position in the given
// direction (toward the server for ClientToServer).
func (t *Tap) Inject(dir Direction, msg []byte) error {
	if dir == ClientToServer {
		return t.server.Send(msg)
	}
	return t.client.Send(msg)
}

// Log returns a copy of every message the tap has seen so far.
func (t *Tap) Log() []TapRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TapRecord, len(t.log))
	copy(out, t.log)
	return out
}

// Close tears down both legs of the splice.
func (t *Tap) Close() {
	t.closeOnce.Do(func() {
		close(t.done)
		t.client.Close()
		t.server.Close()
	})
}

// Spliced dials target through a fresh tap: it returns the connection
// the client should use, plus the tap controlling the splice.
func Spliced(dial func() (Conn, error), ic Interceptor) (Conn, *Tap, error) {
	serverSide, err := dial()
	if err != nil {
		return nil, nil, err
	}
	clientConn, tapClientSide := Pipe(0)
	tap := NewTap(tapClientSide, serverSide, ic)
	return clientConn, tap, nil
}
