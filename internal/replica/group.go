package replica

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ErrNoQuorum reports that the write quorum is currently unreachable:
// an append could not gather enough durable follower acks within the
// ack timeout. The group enters degraded mode; the anti-entropy loop
// clears it once enough followers have caught back up to the leader.
var ErrNoQuorum = errors.New("replica: write quorum unreachable")

// Dialer opens a fresh connection to one follower. The group redials
// through it after every stream failure, paced by a per-follower
// circuit breaker.
type Dialer func() (transport.Conn, error)

// Options configures a replication group. Zero values take the
// documented defaults.
type Options struct {
	// Quorum is the total number of durable copies — leader included —
	// an append must reach before Replicate returns success. Default 2
	// (leader + 1 follower). 1 means the leader alone suffices and
	// followers replicate asynchronously.
	Quorum int
	// AckTimeout bounds how long Replicate waits for the quorum before
	// declaring it unreachable and degrading. Default 2s.
	AckTimeout time.Duration
	// RepairInterval is the anti-entropy cadence: how often streamers
	// probe idle followers and the repair loop re-evaluates degraded
	// state and lag. Default 500ms.
	RepairInterval time.Duration
	// DialBackoff paces reconnection attempts to a dead follower.
	// Default 50ms.
	DialBackoff time.Duration
	// Registry receives the replication metrics; defaults to
	// obs.Default().
	Registry *obs.Registry
	// Name prefixes the exported metrics and identifies the group (one
	// group per shard). Default "replica".
	Name string
}

func (o Options) withDefaults() Options {
	if o.Quorum <= 0 {
		o.Quorum = 2
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	if o.RepairInterval <= 0 {
		o.RepairInterval = 500 * time.Millisecond
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 50 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	if o.Name == "" {
		o.Name = "replica"
	}
	return o
}

// follower is the leader's view of one replica: its durable high-water
// mark (from acks), the live connection if any, and the breaker pacing
// redials.
type follower struct {
	idx    int
	dial   Dialer
	brk    *breaker.Breaker
	hw     atomic.Uint64
	live   atomic.Bool
	notify chan struct{} // cap 1: kick the streamer out of its idle wait

	acks *obs.Counter
	errs *obs.Counter

	mu   sync.Mutex
	conn transport.Conn // current connection, severed on Close
}

func (f *follower) setConn(c transport.Conn) {
	f.mu.Lock()
	f.conn = c
	f.mu.Unlock()
}

func (f *follower) closeConn() {
	f.mu.Lock()
	c := f.conn
	f.conn = nil
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Group replicates one leader journal (one provider shard) to a set of
// followers and accounts the write quorum for each append. It runs one
// streamer goroutine per follower (which owns dialing, catch-up and
// live streaming), one ack-reader per live connection, and one
// anti-entropy repair loop for the group.
type Group struct {
	w   *wal.WAL
	opt Options

	followers []*follower

	mu        sync.Mutex
	ackSignal chan struct{} // closed+replaced on every ack: broadcast to waiters
	degraded  error         // nil = quorum reachable
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup

	quorumWait *obs.Histogram
	degGauge   *obs.Gauge
	lagGauge   *obs.Gauge
	skips      *obs.Counter
	timeouts   *obs.Counter
}

// NewGroup starts replication of w to one follower per dialer and
// returns the running group. Close stops it.
func NewGroup(w *wal.WAL, dialers []Dialer, opt Options) *Group {
	opt = opt.withDefaults()
	g := &Group{
		w:         w,
		opt:       opt,
		ackSignal: make(chan struct{}),
		stop:      make(chan struct{}),
		quorumWait: opt.Registry.Histogram(opt.Name+"_quorum_wait_ns",
			[]int64{100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000}),
		degGauge: opt.Registry.Gauge(opt.Name + "_degraded"),
		lagGauge: opt.Registry.Gauge(opt.Name + "_lag_records"),
		skips:    opt.Registry.Counter(opt.Name + "_degraded_skips_total"),
		timeouts: opt.Registry.Counter(opt.Name + "_quorum_timeouts_total"),
	}
	for i, dial := range dialers {
		f := &follower{
			idx:    i,
			dial:   dial,
			notify: make(chan struct{}, 1),
			acks:   opt.Registry.Counter(obs.Labeled(opt.Name+"_acks_total", "replica", strconv.Itoa(i))),
			errs:   opt.Registry.Counter(obs.Labeled(opt.Name+"_errs_total", "replica", strconv.Itoa(i))),
			brk: breaker.New(breaker.Options{
				Window:     8,
				MinSamples: 2,
				Cooldown:   8 * opt.DialBackoff,
				Registry:   opt.Registry,
				Name:       obs.Labeled(opt.Name+"_dial_breaker", "replica", strconv.Itoa(i)),
			}),
		}
		g.followers = append(g.followers, f)
		g.wg.Add(1)
		go g.runFollower(f)
	}
	g.wg.Add(1)
	go g.repairLoop()
	return g
}

// Replicate blocks until the journal record at lsn is durable on the
// configured write quorum (the leader's own already-completed append
// counts as one copy), then returns nil — the provider's signal that
// it may now sign/ack the protocol step that journaled the record.
//
// If the quorum cannot be gathered within AckTimeout the group
// degrades and ErrNoQuorum is returned: the caller must NOT ack the
// protocol step. While degraded, subsequent calls return nil
// immediately without waiting (drain mode — open sessions complete on
// leader-local durability exactly as an unreplicated provider would,
// and admission of NEW sessions is refused at a higher layer via
// Quorum). Records appended while degraded are backfilled by the
// streamers as followers return; the anti-entropy loop re-arms quorum
// waiting once enough followers have caught up.
func (g *Group) Replicate(lsn uint64) error {
	need := g.opt.Quorum - 1
	g.kickAll()
	if need <= 0 {
		return nil
	}
	if g.Quorum() != nil {
		g.skips.Inc()
		return nil
	}
	start := time.Now()
	timer := time.NewTimer(g.opt.AckTimeout)
	defer timer.Stop()
	for {
		if g.ackedAtLeast(lsn) >= need {
			g.quorumWait.ObserveSince(start)
			return nil
		}
		g.mu.Lock()
		ch := g.ackSignal
		g.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			got := g.ackedAtLeast(lsn)
			err := fmt.Errorf("%w: %d/%d follower acks for LSN %d within %v",
				ErrNoQuorum, got, need, lsn, g.opt.AckTimeout)
			g.setDegraded(err)
			g.timeouts.Inc()
			return err
		case <-g.stop:
			return fmt.Errorf("replica: group %s closed", g.opt.Name)
		}
	}
}

// Quorum reports nil when the write quorum is reachable, or the error
// that degraded the group. Providers fold this into Health().
func (g *Group) Quorum() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded
}

// Converged reports whether every follower's durable high-water mark
// has reached the leader's current LSN — the anti-entropy loop's
// fixed point after a follower restart.
func (g *Group) Converged() bool {
	lsn := g.w.LSN()
	for _, f := range g.followers {
		if f.hw.Load() < lsn {
			return false
		}
	}
	return true
}

// Lag returns how many records the slowest follower is behind the
// leader.
func (g *Group) Lag() uint64 {
	lsn := g.w.LSN()
	var max uint64
	for _, f := range g.followers {
		if hw := f.hw.Load(); lsn > hw && lsn-hw > max {
			max = lsn - hw
		}
	}
	return max
}

// FollowerHW returns follower i's durable high-water mark as last
// acked to the leader.
func (g *Group) FollowerHW(i int) uint64 { return g.followers[i].hw.Load() }

// Close stops the streamers, ack readers and repair loop and severs
// all follower connections.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	close(g.stop)
	g.mu.Unlock()
	for _, f := range g.followers {
		f.closeConn()
	}
	g.wg.Wait()
	return nil
}

func (g *Group) stopped() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

func (g *Group) kickAll() {
	for _, f := range g.followers {
		select {
		case f.notify <- struct{}{}:
		default:
		}
	}
}

// ackedAtLeast counts followers whose durable mark covers lsn.
func (g *Group) ackedAtLeast(lsn uint64) int {
	n := 0
	for _, f := range g.followers {
		if f.hw.Load() >= lsn {
			n++
		}
	}
	return n
}

// broadcastAck wakes every Replicate waiter to re-check quorum.
func (g *Group) broadcastAck() {
	g.mu.Lock()
	close(g.ackSignal)
	g.ackSignal = make(chan struct{})
	g.mu.Unlock()
}

func (g *Group) setDegraded(err error) {
	g.mu.Lock()
	if g.degraded == nil {
		g.degraded = err
		g.degGauge.Set(1)
	}
	g.mu.Unlock()
}

// repairLoop is the group's anti-entropy supervisor: each tick it
// publishes the replication lag, kicks streamers of followers that are
// behind (backfill), and — when the group is degraded — re-arms quorum
// waiting once enough followers have durably caught up to the leader,
// so a killed-and-restarted replica converges and restores service
// with no operator action.
func (g *Group) repairLoop() {
	defer g.wg.Done()
	tick := time.NewTicker(g.opt.RepairInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		lsn := g.w.LSN()
		caughtUp := 0
		behind := false
		for _, f := range g.followers {
			if f.hw.Load() >= lsn {
				if f.live.Load() {
					caughtUp++
				}
			} else {
				behind = true
			}
		}
		g.lagGauge.Set(int64(g.Lag()))
		if behind {
			g.kickAll()
		}
		g.mu.Lock()
		if g.degraded != nil && caughtUp >= g.opt.Quorum-1 {
			g.degraded = nil
			g.degGauge.Set(0)
		}
		g.mu.Unlock()
	}
}

// runFollower is follower f's streamer goroutine: it owns the dial /
// hello / stream / redial cycle for f's connection and spawns an
// ack-reader per live connection. It exits only on Close.
func (g *Group) runFollower(f *follower) {
	defer g.wg.Done()
	for {
		conn := g.connect(f)
		if conn == nil {
			return // closing
		}
		f.live.Store(true)
		done := make(chan struct{})
		g.wg.Add(1)
		go g.readAcks(f, conn, done)
		g.streamTo(f, conn)
		f.live.Store(false)
		f.closeConn()
		<-done
		if g.stopped() {
			return
		}
	}
}

// connect dials f until it has a live connection whose hello frame has
// been read (so the streamer knows the follower's true durable mark),
// pacing attempts with the per-follower breaker and DialBackoff.
// Returns nil when the group is closing.
func (g *Group) connect(f *follower) transport.Conn {
	for {
		if g.stopped() {
			return nil
		}
		if !f.brk.Allow() {
			g.sleep(g.opt.DialBackoff)
			continue
		}
		conn, err := g.tryConnect(f)
		if err != nil {
			f.brk.OnFailure()
			f.errs.Inc()
			g.sleep(g.opt.DialBackoff)
			continue
		}
		f.brk.OnSuccess()
		f.setConn(conn)
		if g.stopped() { // Close raced the dial; its closeConn may have missed this conn
			f.closeConn()
			return nil
		}
		return conn
	}
}

func (g *Group) tryConnect(f *follower) (transport.Conn, error) {
	conn, err := f.dial()
	if err != nil {
		return nil, err
	}
	raw, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("replica: reading hello: %w", err)
	}
	fr, err := decodeFrame(raw)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("replica: bad hello from follower %d: %v", f.idx, err)
	}
	if fr.Kind != frHello {
		conn.Close()
		return nil, fmt.Errorf("replica: bad hello from follower %d: kind %d", f.idx, fr.Kind)
	}
	f.hw.Store(fr.LSN)
	g.broadcastAck()
	return conn, nil
}

// streamBatch bounds how many records one journal read copies out
// under the WAL lock before the lock is released for the sends.
const streamBatch = 256

// frameBytes bounds the records one append frame carries; a frame
// always carries at least one record.
const frameBytes = 1 << 20

// streamTo pushes the leader journal to f over conn until the stream
// breaks: catch-up and live tail are the same LSN-ranged read from the
// follower's acked mark. Records are copied out of the journal in
// bounded batches (ReadBatchFromLSN) and sent with the WAL lock
// RELEASED — a stalled follower connection must only wedge this
// stream, never the leader's own appends. A mark below the compaction
// horizon is served by shipping the leader checkpoint (snapshot frame)
// first. Idle periods are bridged with probes at the repair cadence;
// records still unacked after a full idle interval re-enter the send
// window, so a dropped ack can never wedge the stream.
func (g *Group) streamTo(f *follower, conn transport.Conn) {
	var err error
	defer recoverCrash(&err)
	sent := f.hw.Load()
	for {
		if hw := f.hw.Load(); hw > sent {
			sent = hw
		}
		if g.w.LSN() > sent {
			recs, more, err := g.w.ReadBatchFromLSN(sent, streamBatch)
			switch {
			case errors.Is(err, wal.ErrCompacted):
				payload, ckLSN, ok := g.w.LoadCheckpoint()
				if !ok || ckLSN <= sent {
					// Horizon moved under us without a usable snapshot;
					// treat as a stream fault and redial.
					f.errs.Inc()
					return
				}
				if serr := conn.Send(encodeFrame(&frame{Kind: frSnapshot, LSN: ckLSN, Payload: payload})); serr != nil {
					f.errs.Inc()
					return
				}
				sent = ckLSN
				continue
			case err != nil:
				f.errs.Inc()
				return
			}
			// The read ends where the leader's last batch ended (a batch is
			// written under the journal lock the read takes), so each frame
			// is whole leader batches — the follower flushes once per frame
			// — unless a batch outgrows the read or frame bound.
			for i := 0; i < len(recs); {
				j, size := i+1, len(recs[i])
				for j < len(recs) && size+len(recs[j]) <= frameBytes {
					size += len(recs[j])
					j++
				}
				if ferr := faultpoint.HitErr(fpNetPartition); ferr != nil {
					f.errs.Inc()
					return
				}
				if serr := conn.Send(encodeFrame(&frame{Kind: frAppend, LSN: sent + 1 + uint64(i), Recs: recs[i:j]})); serr != nil {
					f.errs.Inc()
					return
				}
				i = j
			}
			sent += uint64(len(recs))
			if len(recs) > 0 || more {
				continue // more may have landed while we streamed
			}
		}
		select {
		case <-f.notify:
		case <-time.After(g.opt.RepairInterval):
			// Anti-entropy probe: refresh the follower's mark, and fold
			// anything it did not durably ack back into the send window.
			if serr := conn.Send(encodeFrame(&frame{Kind: frProbe})); serr != nil {
				f.errs.Inc()
				return
			}
			if hw := f.hw.Load(); hw < sent {
				sent = hw
			}
		case <-g.stop:
			return
		}
	}
}

// readAcks drains follower acks on conn, advancing f's durable mark
// and waking quorum waiters, until the connection breaks.
func (g *Group) readAcks(f *follower, conn transport.Conn, done chan struct{}) {
	defer g.wg.Done()
	defer close(done)
	defer conn.Close() // unblocks the streamer's Send if we exit first
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		fr, err := decodeFrame(raw)
		if err != nil || fr.Kind != frAck {
			f.errs.Inc()
			return
		}
		// Marks only advance: a re-ack below the known mark is stale.
		for {
			cur := f.hw.Load()
			if fr.LSN <= cur || f.hw.CompareAndSwap(cur, fr.LSN) {
				break
			}
		}
		f.acks.Inc()
		g.broadcastAck()
	}
}

func (g *Group) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-g.stop:
	}
}
