// Package replica is the evidence-journal replication layer: it
// streams every WAL record a provider shard journals to R-1 follower
// replicas over internal/transport, and lets the provider delay its
// protocol acks — in particular the NRR signature at upload-binding —
// until a write quorum of replicas holds the record durably. The
// journal-before-ack contract (DESIGN.md §7) becomes
// journal-on-quorum-before-ack: losing any single node no longer loses
// a signed receipt, because every acked record exists on at least
// quorum machines and a Provider recovered over a follower's journal
// reaches the same dispute verdicts as the leader would have.
//
// The design is pull-from-WAL: the leader's per-follower streamer
// reads its own journal by LSN range (wal.ReadBatchFromLSN) starting
// at the follower's durable high-water mark, copying bounded batches
// out under the journal lock and sending with the lock released — a
// stalled follower connection can wedge its own stream but never the
// leader's appends. Live streaming, restart
// catch-up and anti-entropy backfill are therefore ONE mechanism that
// differs only in how far behind the follower is — a killed and
// restarted follower reports its high-water mark in its hello frame
// and the stream resumes exactly there, with no operator action. When
// the mark has fallen below the leader's compaction horizon the
// streamer ships the leader's checkpoint snapshot instead
// (wal.InstallSnapshot) and resumes from the snapshot LSN.
//
// Frames are length-delimited transport messages:
//
//	hello    follower→leader  durable high-water mark, first frame on a conn
//	append   leader→follower  consecutive journal records, first LSN
//	ack      follower→leader  high-water mark after a durable append
//	probe    leader→follower  liveness + high-water refresh (re-acked)
//	snapshot leader→follower  checkpoint payload + LSN (compacted catch-up)
package replica

import (
	"fmt"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Replication faultpoints, exercised by the chaos suite. ack.drop and
// follower.crash fire on the follower side of the stream (after and
// before the durable append, respectively); net.partition fires on the
// leader side before each send. A Kill arm simulates that node dying
// mid-replication: the goroutine serving the stream recovers the
// crash, abandons the connection, and the survivors must still satisfy
// (or provably fail) the write quorum.
var (
	fpAckDrop       = faultpoint.Register("replica.ack.drop")
	fpFollowerCrash = faultpoint.Register("replica.follower.crash")
	fpNetPartition  = faultpoint.Register("replica.net.partition")
)

const replMagic = "tpnr-repl-v2"

// Frame types.
const (
	frHello    uint8 = 1
	frAppend   uint8 = 2
	frAck      uint8 = 3
	frProbe    uint8 = 4
	frSnapshot uint8 = 5
)

// frame is the decoded form of one replication message. An append
// frame carries Recs — one or more consecutive journal records, the
// first at LSN — and every other kind carries Payload:
//
//	magic | u8 kind | u64 LSN | append: u32 n, n × (u32 len | record)
//	                          | other:  u32 len | payload
type frame struct {
	Kind    uint8
	LSN     uint64   // hello/ack: high-water mark; append: first record's LSN; snapshot: boundary LSN
	Payload []byte   // snapshot: checkpoint payload
	Recs    [][]byte // append: the records
}

func encodeFrame(f *frame) []byte {
	n := 32 + len(f.Payload)
	for _, r := range f.Recs {
		n += 4 + len(r)
	}
	e := wire.NewEncoder(n)
	e.String(replMagic)
	e.U8(f.Kind)
	e.U64(f.LSN)
	if f.Kind == frAppend {
		e.U32(uint32(len(f.Recs)))
		for _, r := range f.Recs {
			e.Bytes32(r)
		}
	} else {
		e.Bytes32(f.Payload)
	}
	return e.Bytes()
}

func decodeFrame(b []byte) (*frame, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic(replMagic); err != nil {
		return nil, fmt.Errorf("replica: bad frame: %w", err)
	}
	f := &frame{}
	f.Kind = d.U8()
	f.LSN = d.U64()
	if f.Kind == frAppend {
		// Each record costs at least its 4-byte length, so the count is
		// checked against what is left before anything is allocated.
		n := d.U32()
		if d.Err() == nil && (n == 0 || uint64(n) > uint64(d.Remaining()/4)) {
			return nil, fmt.Errorf("replica: malformed frame: append of %d records", n)
		}
		f.Recs = make([][]byte, 0, n)
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			f.Recs = append(f.Recs, d.Bytes32())
		}
	} else {
		f.Payload = d.Bytes32()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("replica: malformed frame: %v", err)
	}
	return f, nil
}

// recoverCrash converts a faultpoint kill on the current goroutine
// into an error — the replication goroutines host chaos kill sites,
// and "this node died here" must read as a broken stream to the peer,
// not as a crashed test process.
func recoverCrash(err *error) {
	if r := recover(); r != nil {
		c, ok := r.(*faultpoint.Crash)
		if !ok {
			panic(r)
		}
		*err = c
	}
}

// Follower owns one replica's journal and applies the leader's stream
// to it. The journal is an ordinary wal.WAL with its own directory and
// sync policy: a record is acked only once Append returned, so an ack
// carries the same durability promise the leader's own journal gives —
// that is what makes quorum acks count toward the dispute guarantee.
type Follower struct {
	w *wal.WAL

	// mu serializes the apply path (high-water check + Append, and
	// snapshot installs) across connections: a redialing leader can
	// briefly leave a displaced ServeConn goroutine racing the new
	// one, and an unserialized check-then-append would let both
	// observe hw=N and append the same leader record twice — the
	// follower journal would silently stop being a prefix of the
	// leader's history.
	mu sync.Mutex
}

// NewFollower wraps a follower journal.
func NewFollower(w *wal.WAL) *Follower { return &Follower{w: w} }

// HW reports the follower's durable high-water mark (its journal LSN).
func (f *Follower) HW() uint64 { return f.w.LSN() }

// applyAppend applies one leader append frame under f.mu — the check
// of the current mark and the conditional append are one atomic step —
// and returns the resulting durable high-water mark. The frame's new
// records are appended as one journal batch: one write and one flush
// before the ack, however many records the leader's batch held.
// Records the follower already holds (leader resend window) are
// skipped; a frame that starts past the mark (a gap) is not applied,
// and the returned mark re-acks the current position so the leader
// resumes from there.
func (f *Follower) applyAppend(fr *frame) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hw := f.w.LSN()
	if fr.LSN == 0 || fr.LSN > hw+1 {
		return hw, nil
	}
	skip := hw + 1 - fr.LSN
	if skip >= uint64(len(fr.Recs)) {
		return hw, nil
	}
	lsn, err := f.w.AppendBatch(fr.Recs[skip:])
	if err != nil {
		return hw, fmt.Errorf("replica: applying LSN %d: %w", hw+1, err)
	}
	return lsn, nil
}

// applySnapshot installs a leader checkpoint under f.mu and returns
// the journal's resulting high-water mark. A snapshot at or below the
// current mark is stale — the leader re-sent it before this follower's
// ack of the first copy arrived — and is not installed: installing it
// would truncate records past it that the leader has already counted
// toward a quorum. The current mark is re-acked instead, exactly as for
// a duplicate append.
func (f *Follower) applySnapshot(fr *frame) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if hw := f.w.LSN(); fr.LSN <= hw {
		return hw, nil
	}
	if err := f.w.InstallSnapshot(fr.Payload, fr.LSN); err != nil {
		return 0, fmt.Errorf("replica: installing snapshot at LSN %d: %w", fr.LSN, err)
	}
	return f.w.LSN(), nil
}

// ServeConn speaks the follower side of the replication protocol on
// one leader connection until the connection breaks (or a chaos kill
// simulates this replica dying). Appends are applied strictly in LSN
// order: a duplicate is re-acked, a gap is NOT applied (the current
// mark is re-acked so the leader resends) — so the follower journal is
// always a prefix of the leader's history and recovery over it is
// byte-identical to recovering the leader at that point in time. A
// snapshot at or below the current mark is likewise re-acked, not
// installed.
func (f *Follower) ServeConn(conn transport.Conn) (err error) {
	defer recoverCrash(&err)
	hw := f.w.LSN()
	if err := conn.Send(encodeFrame(&frame{Kind: frHello, LSN: hw})); err != nil {
		return fmt.Errorf("replica: sending hello: %w", err)
	}
	for {
		raw, err := conn.Recv()
		if err != nil {
			return err
		}
		fr, err := decodeFrame(raw)
		if err != nil {
			return err
		}
		switch fr.Kind {
		case frAppend:
			faultpoint.Hit(fpFollowerCrash)
			hw, err = f.applyAppend(fr)
			if err != nil {
				return err
			}
			if ferr := faultpoint.HitErr(fpAckDrop); ferr != nil {
				continue // record is durable; the ack is lost in transit
			}
			if err := conn.Send(encodeFrame(&frame{Kind: frAck, LSN: hw})); err != nil {
				return err
			}
		case frSnapshot:
			hw, err = f.applySnapshot(fr)
			if err != nil {
				return err
			}
			if err := conn.Send(encodeFrame(&frame{Kind: frAck, LSN: hw})); err != nil {
				return err
			}
		case frProbe:
			if err := conn.Send(encodeFrame(&frame{Kind: frAck, LSN: f.w.LSN()})); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replica: unexpected frame kind %d from leader", fr.Kind)
		}
	}
}

// Loopback returns a Dialer that serves f in-process over an
// in-memory pipe on every dial — the single-machine deployment shape
// where followers are separate journals (separate disks, surviving
// independent corruption) but not separate processes. Each serving
// goroutine exits when the leader closes its end.
func Loopback(f *Follower) Dialer {
	return func() (transport.Conn, error) {
		leader, server := transport.Pipe(64)
		go func() {
			f.ServeConn(server)
			server.Close()
		}()
		return leader, nil
	}
}

// Host runs a follower behind a transport listener: each accepted
// connection is served until it breaks, newest connection wins (a
// re-dialing leader displaces the stale stream). Close stops the
// accept loop and severs the active stream.
type Host struct {
	ln transport.Listener
	f  *Follower

	mu   sync.Mutex
	cur  transport.Conn
	done bool
	wg   sync.WaitGroup
}

// Serve starts the accept loop for f on ln and returns immediately.
func Serve(ln transport.Listener, f *Follower) *Host {
	h := &Host{ln: ln, f: f}
	h.wg.Add(1)
	go h.acceptLoop()
	return h
}

func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.mu.Lock()
		if h.done {
			h.mu.Unlock()
			conn.Close()
			return
		}
		if h.cur != nil {
			h.cur.Close()
		}
		h.cur = conn
		h.mu.Unlock()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.f.ServeConn(conn)
			conn.Close()
		}()
	}
}

// Close stops accepting leader connections and severs the active one.
func (h *Host) Close() error {
	h.mu.Lock()
	h.done = true
	cur := h.cur
	h.cur = nil
	h.mu.Unlock()
	err := h.ln.Close()
	if cur != nil {
		cur.Close()
	}
	h.wg.Wait()
	return err
}
