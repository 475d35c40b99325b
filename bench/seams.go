package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Spans are recorded from the benchmark's own files, at the four seams
// the harness owns when it wires a deployment: the client's
// transport.Conn, the core.Handler handed to core.NewServer (provider
// and TTP), the provider's storage.Store and its core.Replicator.
// Spans inside the program are a later change (ROADMAP item 4).
//
// The wrappers are always installed, so a traced and an untraced round
// run the same code; recording is a flag they read.

// Span names.
const (
	spanSend      = "transport.send"
	spanRecvWait  = "transport.recv_wait"
	spanHandle    = "core.handle"
	spanTTPHandle = "ttp.handle"
	spanPut       = "storage.put"
	spanGet       = "storage.get"
	spanReplicate = "replica.replicate"
	spanArchive   = "archive.get"
	spanDecide    = "arbitrator.decide"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Txn    string `json:"txn,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; writeFile dumps them when the run ends.
// A traced run has one client, so at most one operation is in flight
// and "the handler that is running now" is a stack, not a set.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	roots   map[string]int64 // txn on the wire -> the client operation that put it there
	handles []int64          // open handler spans, innermost last
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends a finished span and returns its id.
func (t *tracer) add(parent int64, txn, name string, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Txn: txn, Name: name, Start: start, End: end})
	return id
}

// beginOp opens the root span of one client operation; the returned
// func closes it. Both are no-ops while recording is off.
func (t *tracer) beginOp(kind, txn string) func() {
	if !t.on.Load() {
		return func() {}
	}
	id := t.add(0, txn, "op."+kind, t.now(), 0)
	t.mu.Lock()
	t.roots[txn] = id
	t.mu.Unlock()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.spans[id-1].End = end
		delete(t.roots, txn)
		t.mu.Unlock()
	}
}

func (t *tracer) rootOf(txn string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[txn]
}

// enterHandle opens a handler span under the innermost open handler,
// or under the client operation carrying txn.
func (t *tracer) enterHandle(name, txn string) func() {
	start := t.now()
	t.mu.Lock()
	parent := t.roots[txn]
	if n := len(t.handles); n > 0 {
		parent = t.handles[n-1]
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Txn: txn, Name: name, Start: start})
	t.handles = append(t.handles, id)
	t.mu.Unlock()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.spans[id-1].End = end
		for i := len(t.handles) - 1; i >= 0; i-- {
			if t.handles[i] == id {
				t.handles = append(t.handles[:i], t.handles[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// child records a finished span under the innermost open handler: the
// store and the replicator see no message, so time containment finds
// their parent.
func (t *tracer) child(name string, start int64) {
	end := t.now()
	t.mu.Lock()
	var parent int64
	if n := len(t.handles); n > 0 {
		parent = t.handles[n-1]
	}
	t.mu.Unlock()
	t.add(parent, "", name, start, end)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// peekTxn reads the transaction ID of an encoded core.Message the way
// core.Server does before it picks a lock shard: no decode, no crypto.
func peekTxn(raw []byte) string {
	d := wire.NewDecoder(raw)
	if string(d.View32()) != "tpnr-msg-v1" {
		return ""
	}
	header := d.View32()
	if d.Err() != nil {
		return ""
	}
	txn, _ := evidence.PeekTxnID(header)
	return txn
}

// tracedConn is the client-side seam. The engines read through a pump
// goroutine that is already blocked in Recv before the next request is
// sent, so the wait for a reply is timed from the end of the last Send,
// not from the call to Recv.
type tracedConn struct {
	inner    transport.Conn
	t        *tracer
	lastSend atomic.Int64
}

func (c *tracedConn) Send(msg []byte) error {
	if !c.t.on.Load() {
		return c.inner.Send(msg)
	}
	start := c.t.now()
	err := c.inner.Send(msg)
	end := c.t.now()
	c.lastSend.Store(end)
	txn := peekTxn(msg)
	c.t.add(c.t.rootOf(txn), txn, spanSend, start, end)
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	msg, err := c.inner.Recv()
	if err == nil && c.t.on.Load() {
		if start := c.lastSend.Load(); start > 0 {
			txn := peekTxn(msg)
			c.t.add(c.t.rootOf(txn), txn, spanRecvWait, start, c.t.now())
		}
	}
	return msg, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// SetDeadline keeps the wrapper a transport.DeadlineConn, so a context
// deadline still reaches the socket.
func (c *tracedConn) SetDeadline(d time.Time) error {
	if dc, ok := c.inner.(transport.DeadlineConn); ok {
		return dc.SetDeadline(d)
	}
	return nil
}

// tracedHandler is the server-side seam for the provider and the TTP.
type tracedHandler struct {
	inner core.Handler
	t     *tracer
	name  string
}

func (h *tracedHandler) Handle(raw []byte) ([]byte, error) {
	if !h.t.on.Load() {
		return h.inner.Handle(raw)
	}
	defer h.t.enterHandle(h.name, peekTxn(raw))()
	return h.inner.Handle(raw)
}

// tracedTxnHandler keeps core.Server's routing fast path for a sharded
// engine: the server hands down the txn it already peeked.
type tracedTxnHandler struct {
	tracedHandler
	th core.TxnHandler
}

func (h *tracedTxnHandler) HandleTxn(txn string, raw []byte) ([]byte, error) {
	if !h.t.on.Load() {
		return h.th.HandleTxn(txn, raw)
	}
	defer h.t.enterHandle(h.name, txn)()
	return h.th.HandleTxn(txn, raw)
}

func traceHandler(h core.Handler, t *tracer, name string) core.Handler {
	base := tracedHandler{inner: h, t: t, name: name}
	if th, ok := h.(core.TxnHandler); ok {
		return &tracedTxnHandler{tracedHandler: base, th: th}
	}
	return &base
}

// tracedStore is the blob-store seam. It also holds the footprint
// guard: a key outside the workload's ring fails the run.
type tracedStore struct {
	inner storage.Store
	t     *tracer

	puts, gets, escapes atomic.Int64

	mu   sync.RWMutex
	ring map[string]bool
}

func (s *tracedStore) allow(keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		s.ring = make(map[string]bool, len(keys))
	}
	for _, k := range keys {
		s.ring[k] = true
	}
}

func (s *tracedStore) check(key string) {
	s.mu.RLock()
	ok := s.ring[key]
	s.mu.RUnlock()
	if !ok {
		s.escapes.Add(1)
	}
}

func (s *tracedStore) Put(key string, data []byte, want cryptoutil.Digest) (storage.Object, error) {
	s.check(key)
	s.puts.Add(1)
	if !s.t.on.Load() {
		return s.inner.Put(key, data, want)
	}
	defer s.t.child(spanPut, s.t.now())
	return s.inner.Put(key, data, want)
}

func (s *tracedStore) Get(key string) (storage.Object, error) {
	s.check(key)
	s.gets.Add(1)
	if !s.t.on.Load() {
		return s.inner.Get(key)
	}
	defer s.t.child(spanGet, s.t.now())
	return s.inner.Get(key)
}

func (s *tracedStore) Delete(key string) error { return s.inner.Delete(key) }
func (s *tracedStore) Keys() []string          { return s.inner.Keys() }

// tracedRepl is the replication seam: Replicate is the quorum wait.
type tracedRepl struct {
	inner core.Replicator
	t     *tracer
	calls *atomic.Int64
}

func (r *tracedRepl) Replicate(lsn uint64) error {
	r.calls.Add(1)
	if !r.t.on.Load() {
		return r.inner.Replicate(lsn)
	}
	defer r.t.child(spanReplicate, r.t.now())
	return r.inner.Replicate(lsn)
}

func (r *tracedRepl) Quorum() error { return r.inner.Quorum() }
