package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Handler processes one encoded protocol message and returns the
// encoded reply (nil for deliberate silence) plus the handling error.
// Provider and the ttp package's Server both satisfy it, so one
// Server implementation fronts every daemon in the system. Server
// recycles raw once Handle returns: a handler must not keep raw, or the
// Payload that DecodeMessage views inside it, past its return.
type Handler interface {
	Handle(raw []byte) ([]byte, error)
}

// txnShards sizes the sharded per-transaction mutex. 64 shards keep
// lock contention negligible for hundreds of concurrent transactions
// while bounding memory to a fixed array.
const txnShards = 64

// Server is the concurrent TPNR runtime: it accepts connections from a
// transport.Listener, serves each on its own goroutine, serializes
// messages of the same transaction through a sharded mutex (so
// independent uploads/downloads/resolves proceed in parallel while
// same-txn messages never interleave inside the handler), isolates
// handler panics per connection, and drains in-flight sessions on
// graceful shutdown.
type Server struct {
	h Handler
	// th is non-nil when h also routes on the transaction ID (the
	// ShardedEngine): the txn peeked for lock sharding is passed down
	// so the handler never parses the frame a second time.
	th  TxnHandler
	met *serverMetrics
	log *obs.Logger

	shards [txnShards]sync.Mutex

	mu        sync.Mutex
	draining  bool
	listeners []transport.Listener
	conns     map[transport.Conn]struct{}

	// inflight counts message handlings in progress; Shutdown waits for
	// it before closing connections. Add happens under mu with a
	// draining check, so no Add can race a Wait.
	inflight sync.WaitGroup
	// connWG counts per-connection goroutines.
	connWG sync.WaitGroup

	panics atomic.Int64

	// Admission control (ServerMaxInflight). maxInflight==0 means
	// unlimited.
	maxInflight int64
	inflightNow atomic.Int64

	// Expiry reaper (ServerExpiry). The goroutine starts in NewServer
	// and stops in Shutdown.
	expClk   clock.Clock
	expEvery time.Duration
	expFn    func(now time.Time) int
	expStop  chan struct{}
	expDone  chan struct{}
	expOnce  sync.Once
}

// ServerOption configures a Server: metrics registry, event logger,
// admission control and the expiry reaper.
type ServerOption func(*serverConfig)

type serverConfig struct {
	reg *obs.Registry
	log *obs.Logger

	maxInflight int64

	expClk   clock.Clock
	expEvery time.Duration
	expFn    func(now time.Time) int
}

// ServerRegistry directs the server's metrics (messages handled,
// handler errors by class, panics, active connections, per-message
// latency histogram) into reg instead of the process-wide default.
func ServerRegistry(r *obs.Registry) ServerOption {
	return func(c *serverConfig) { c.reg = r }
}

// ServerLogger attaches a structured-event logger; handler errors and
// panics emit events through it. Nil (the default) logs nothing.
func ServerLogger(l *obs.Logger) ServerOption {
	return func(c *serverConfig) { c.log = l }
}

// ServerMaxInflight caps concurrently executing handlers across all
// connections. A message arriving over the cap is shed with an
// unsigned overload control frame (the client sees ErrOverloaded and
// backs off) instead of queueing without bound — bounded work beats
// unbounded latency under a burst. 0 (the default) means unlimited.
func ServerMaxInflight(n int) ServerOption {
	return func(c *serverConfig) { c.maxInflight = int64(n) }
}

// ServerExpiry runs a reaper goroutine that calls expire with the
// current time every interval; expire returns how many sessions it
// expired (counted on server_expired_sessions_total). Wire a
// Provider's ExpireStale here to enforce its DeadlinePolicy. The
// reaper starts with the server and stops in Shutdown.
func ServerExpiry(clk clock.Clock, every time.Duration, expire func(now time.Time) int) ServerOption {
	return func(c *serverConfig) {
		c.expClk, c.expEvery, c.expFn = clk, every, expire
	}
}

// NewServer wraps a message handler in a concurrent server.
func NewServer(h Handler, opts ...ServerOption) *Server {
	cfg := serverConfig{reg: obs.Default()}
	for _, fn := range opts {
		fn(&cfg)
	}
	th, _ := h.(TxnHandler)
	s := &Server{
		h:           h,
		th:          th,
		met:         newServerMetrics(cfg.reg),
		log:         cfg.log,
		conns:       make(map[transport.Conn]struct{}),
		maxInflight: cfg.maxInflight,
	}
	if cfg.expFn != nil {
		s.expClk, s.expEvery, s.expFn = cfg.expClk, cfg.expEvery, cfg.expFn
		if s.expClk == nil {
			s.expClk = clock.Real()
		}
		if s.expEvery <= 0 {
			s.expEvery = time.Second
		}
		s.expStop = make(chan struct{})
		s.expDone = make(chan struct{})
		go s.reap()
	}
	return s
}

// reap is the expiry reaper loop: every expEvery it hands the current
// time to the configured expire callback and counts what it reaped.
func (s *Server) reap() {
	defer close(s.expDone)
	for {
		select {
		case <-s.expStop:
			return
		case <-s.expClk.After(s.expEvery):
			if n := s.expFn(s.expClk.Now()); n > 0 {
				s.met.expired.Add(int64(n))
				s.log.Info("sessions_expired", obs.F("count", n))
			}
		}
	}
}

// stopReaper halts the expiry goroutine; safe to call repeatedly.
func (s *Server) stopReaper() {
	if s.expFn == nil {
		return
	}
	s.expOnce.Do(func() { close(s.expStop) })
	<-s.expDone
}

// Serve accepts connections on l until the listener closes, Shutdown
// is called (returning nil), or ctx terminates (returning
// ErrCancelled; connections then close as their in-flight message
// completes). Serve may be called on several listeners concurrently —
// one Server can front an in-memory and a TCP listener at once.
func (s *Server) Serve(ctx context.Context, l transport.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("core: server is shut down")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()

	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()

	for {
		conn, err := l.Accept()
		if err != nil {
			if cerr := CheckContext(ctx); cerr != nil {
				return cerr
			}
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if !s.register(conn) {
			conn.Close()
			return nil
		}
		go s.serveConn(ctx, conn)
	}
}

// register tracks an accepted connection; it refuses (false) while
// draining so Shutdown never loses a connection it should close. The
// connWG.Add must happen here, under the same mutex that Shutdown
// uses to set draining: a bare Add after register returns could race
// with Shutdown's Wait when the accepting goroutine deschedules
// between the two.
func (s *Server) register(conn transport.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	s.connWG.Add(1)
	s.met.active.Inc()
	return true
}

func (s *Server) unregister(conn transport.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.met.active.Dec()
}

// serveConn is the per-connection loop: receive, handle under the
// transaction lock, reply. A handler panic is confined to this
// connection — it is counted, the connection closes, and every other
// session proceeds undisturbed.
func (s *Server) serveConn(ctx context.Context, conn transport.Conn) {
	defer s.connWG.Done()
	defer s.unregister(conn)
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.met.panics.Inc()
			s.log.Error("conn_panic", obs.F("panic", r))
		}
	}()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close() // unblock the pending Recv
		case <-done:
		}
	}()
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		if s.overloaded() {
			s.shed(conn, raw)
			continue
		}
		if !s.beginMsg() {
			return
		}
		s.inflightNow.Add(1)
		start := time.Now()
		reply, err := s.handleOne(raw)
		s.met.latency.ObserveSince(start)
		s.met.msgs.Inc()
		s.inflightNow.Add(-1)
		s.inflight.Done()
		if err != nil {
			// Handler errors used to be dropped on the floor here,
			// leaving protocol rejections, auth failures and recovered
			// panics invisible to operators. Count them by class and emit
			// a structured event; the wire behavior (reply or deliberate
			// silence) is unchanged.
			s.recordHandlerError(err)
		}
		// The inbound buffer goes back to the transport pool. The
		// decoded Message.Payload aliases it, so a handler must not keep
		// the payload past its return (see DecodeMessage).
		transport.Recycle(raw)
		if reply != nil {
			if err := conn.Send(reply); err != nil {
				return
			}
		}
	}
}

// overloaded reports whether admission control refuses new work right
// now. The load check is read-then-add, so a burst can briefly exceed
// the cap by the number of racing connections — an approximate cap is
// fine; the point is that queue depth stays bounded.
func (s *Server) overloaded() bool {
	return s.maxInflight > 0 && s.inflightNow.Load() >= s.maxInflight
}

// shed refuses one message under overload: the buffer goes straight
// back to the pool and the client gets an unsigned control frame
// telling it to back off and retry. Deliberately unsigned — shedding
// exists to protect the server from work, and a signed reply costs a
// private-key signature and a seal per refusal (see the cost note on
// errorReply), a sixth of a whole upload's private-key work. The frame
// is a retry hint, not evidence.
func (s *Server) shed(conn transport.Conn, raw []byte) {
	transport.Recycle(raw)
	s.met.shed.Inc()
	s.log.Warn("overload_shed", obs.F("inflight", s.inflightNow.Load()))
	conn.Send(encodeControl(ctlOverloaded, "server at max in-flight handlers"))
}

// beginMsg registers an in-flight handling unless the server is
// draining.
func (s *Server) beginMsg() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// handleOne runs the handler under the message's transaction shard
// lock, converting a handler panic into an error so the in-flight
// accounting in serveConn stays balanced.
func (s *Server) handleOne(raw []byte) (reply []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.met.panics.Inc()
			reply, err = nil, fmt.Errorf("%w: %w: %v", ErrProtocol, errHandlerPanic, r)
		}
	}()
	faultpoint.Hit(fpServerHandleSlow)
	if txn, ok := txnOf(raw); ok {
		mu := &s.shards[shardOf(txn)]
		mu.Lock()
		defer mu.Unlock()
		if s.th != nil {
			return s.th.HandleTxn(txn, raw)
		}
	}
	return s.h.Handle(raw)
}

// maxLoggedErr bounds the error text of one handler_error event.
// Decoders quote the bytes they reject into their errors, and before
// authentication a peer chooses up to wire.MaxFrameSize of them.
const maxLoggedErr = 256

// recordHandlerError counts a handler error under its class and emits
// a structured event. Runs off the reply path's critical section (no
// locks held), so instrumentation never extends a transaction's shard
// hold time.
func (s *Server) recordHandlerError(err error) {
	class := errorClass(err)
	s.met.errs.Inc()
	s.met.errByClass[class].Inc()
	msg := err.Error()
	if len(msg) > maxLoggedErr {
		msg = msg[:maxLoggedErr] + "..."
	}
	s.log.Warn("handler_error", obs.F("class", class), obs.F("err", msg))
}

// txnOf extracts the transaction ID from an encoded message without
// any cryptography — and without the full decode: a zero-copy peek at
// the header's routing field, so picking the lock shard costs one
// small string allocation rather than copying header, payload and
// sealed evidence. Unparseable messages get no lock — the handler
// rejects them anyway.
func txnOf(raw []byte) (string, bool) {
	d := wire.NewDecoder(raw)
	if string(d.View32()) != "tpnr-msg-v1" {
		return "", false
	}
	headerBytes := d.View32()
	if d.Err() != nil {
		return "", false
	}
	return evidence.PeekTxnID(headerBytes)
}

// shardOf maps a transaction ID onto its mutex shard (FNV-1a).
func shardOf(txn string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(txn))
	return h.Sum32() % txnShards
}

// Shutdown gracefully stops the server: new connections and messages
// are refused, listeners close, in-flight handlings drain (bounded by
// ctx — an expired ctx abandons the drain and reports ErrCancelled),
// then every connection closes and the per-connection goroutines are
// reaped. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopReaper()
	s.mu.Lock()
	s.draining = true
	ls := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = CheckContext(ctx)
	}

	s.mu.Lock()
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.connWG.Wait()
	return err
}

// ActiveConns reports connections currently being served (tests and
// operational introspection).
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Panics reports how many handler panics the server has absorbed.
func (s *Server) Panics() int64 { return s.panics.Load() }

// Compile-time wiring checks: the Provider fronts a Server and both
// parties satisfy the unified Resolver interface.
var (
	_ Handler  = (*Provider)(nil)
	_ Resolver = (*Client)(nil)
	_ Resolver = (*Provider)(nil)
)
