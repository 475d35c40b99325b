package replica

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wal"
)

// fastOpts keeps the tests snappy: tight ack timeout and repair
// cadence, private registry so parallel tests don't collide on metric
// names.
func fastOpts(name string) Options {
	return Options{
		Quorum:         2,
		AckTimeout:     400 * time.Millisecond,
		RepairInterval: 20 * time.Millisecond,
		DialBackoff:    5 * time.Millisecond,
		Registry:       obs.NewRegistry(),
		Name:           name,
	}
}

func openWAL(t *testing.T, dir string) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// cluster is a leader WAL plus n follower hosts on an in-memory
// network, the shape deploy builds per shard.
type cluster struct {
	leader    *wal.WAL
	followers []*wal.WAL
	hosts     []*Host
	dialers   []Dialer
	net       *transport.Network
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	dir := t.TempDir()
	c := &cluster{net: transport.NewNetwork()}
	c.leader = openWAL(t, filepath.Join(dir, "leader"))
	for i := 0; i < n; i++ {
		fw := openWAL(t, filepath.Join(dir, fmt.Sprintf("replica-%02d", i)))
		addr := fmt.Sprintf("replica-%02d", i)
		ln, err := c.net.Listen(addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		host := Serve(ln, NewFollower(fw))
		t.Cleanup(func() { host.Close() })
		c.followers = append(c.followers, fw)
		c.hosts = append(c.hosts, host)
		c.dialers = append(c.dialers, func() (transport.Conn, error) { return c.net.Dial(addr) })
	}
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQuorumReplicate is the happy path: every append gathers the
// write quorum, Replicate returns promptly, and both followers end up
// byte-identical to the leader.
func TestQuorumReplicate(t *testing.T) {
	leakcheck.At(t)
	c := newCluster(t, 2)
	g := NewGroup(c.leader, c.dialers, fastOpts("t_quorum"))
	defer g.Close()

	var recs [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		recs = append(recs, rec)
		lsn, err := c.leader.AppendLSN(rec)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := g.Replicate(lsn); err != nil {
			t.Fatalf("replicate LSN %d: %v", lsn, err)
		}
	}
	if err := g.Quorum(); err != nil {
		t.Fatalf("quorum degraded on healthy cluster: %v", err)
	}
	waitFor(t, "full convergence", g.Converged)
	for i, fw := range c.followers {
		var got [][]byte
		if err := fw.Replay(func(rec []byte) error {
			got = append(got, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			t.Fatalf("replaying follower %d: %v", i, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("follower %d has %d records, want %d", i, len(got), len(recs))
		}
		for j := range recs {
			if !bytes.Equal(got[j], recs[j]) {
				t.Fatalf("follower %d record %d = %q, want %q", i, j, got[j], recs[j])
			}
		}
	}
}

// TestQuorumTimeoutDegrades: with no reachable followers the first
// Replicate must fail with ErrNoQuorum within the ack timeout, and
// later calls must drain fast (no per-append stall while degraded).
func TestQuorumTimeoutDegrades(t *testing.T) {
	leakcheck.At(t)
	leader := openWAL(t, t.TempDir())
	dead := func() (transport.Conn, error) { return nil, errors.New("unreachable") }
	g := NewGroup(leader, []Dialer{dead, dead}, fastOpts("t_timeout"))
	defer g.Close()

	lsn, err := leader.AppendLSN([]byte("rec"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Replicate(lsn); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Replicate with no followers = %v, want ErrNoQuorum", err)
	}
	if g.Quorum() == nil {
		t.Fatal("group not degraded after quorum timeout")
	}
	lsn2, _ := leader.AppendLSN([]byte("rec2"))
	start := time.Now()
	if err := g.Replicate(lsn2); err != nil {
		t.Fatalf("degraded Replicate should drain, got %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("degraded Replicate stalled %v; drain mode must not wait", d)
	}
}

// TestFollowerRestartConverges kills one follower host mid-stream,
// proves the quorum survives on the other, then restarts the dead
// follower over its surviving journal and asserts anti-entropy
// backfills it to the leader's LSN and clears nothing it shouldn't —
// all with no operator action beyond restarting the process.
func TestFollowerRestartConverges(t *testing.T) {
	leakcheck.At(t)
	c := newCluster(t, 2)
	g := NewGroup(c.leader, c.dialers, fastOpts("t_restart"))
	defer g.Close()

	lsn, _ := c.leader.AppendLSN([]byte("before"))
	if err := g.Replicate(lsn); err != nil {
		t.Fatalf("initial replicate: %v", err)
	}

	// Kill follower 0; quorum 2-of-3 must still hold via follower 1.
	c.hosts[0].Close()
	for i := 0; i < 5; i++ {
		l, _ := c.leader.AppendLSN([]byte(fmt.Sprintf("during-%d", i)))
		if err := g.Replicate(l); err != nil {
			t.Fatalf("replicate with one dead follower: %v", err)
		}
	}

	// Restart follower 0 on the same journal; the hello carries its old
	// mark and the streamer backfills the gap.
	ln, err := c.net.Listen("replica-00")
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	host := Serve(ln, NewFollower(c.followers[0]))
	defer host.Close()
	waitFor(t, "restarted follower convergence", g.Converged)
	if hw, lsn := g.FollowerHW(0), c.leader.LSN(); hw != lsn {
		t.Fatalf("follower 0 hw %d != leader LSN %d after restart", hw, lsn)
	}
}

// TestSnapshotCatchUp: a follower whose mark fell below the leader's
// compaction horizon is bootstrapped from the leader checkpoint and
// then streamed the live tail.
func TestSnapshotCatchUp(t *testing.T) {
	leakcheck.At(t)
	dir := t.TempDir()
	leader := openWAL(t, filepath.Join(dir, "leader"))
	for i := 0; i < 8; i++ {
		if _, err := leader.AppendLSN([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("snapshot-state")
	if _, err := leader.Checkpoint(state); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	lastLSN := uint64(0)
	for i := 0; i < 3; i++ {
		l, err := leader.AppendLSN([]byte(fmt.Sprintf("tail-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = l
	}

	// Fresh follower at LSN 0 — strictly below the compaction horizon.
	net := transport.NewNetwork()
	fw := openWAL(t, filepath.Join(dir, "replica-00"))
	ln, _ := net.Listen("f0")
	host := Serve(ln, NewFollower(fw))
	defer host.Close()

	opt := fastOpts("t_snapshot")
	opt.Quorum = 2
	g := NewGroup(leader, []Dialer{func() (transport.Conn, error) { return net.Dial("f0") }}, opt)
	defer g.Close()

	waitFor(t, "snapshot catch-up", func() bool { return g.FollowerHW(0) == lastLSN })
	payload, ckLSN, ok := fw.LoadCheckpoint()
	if !ok {
		t.Fatal("follower has no installed checkpoint")
	}
	if !bytes.Equal(payload, state) {
		t.Fatalf("follower checkpoint payload %q, want %q", payload, state)
	}
	if ckLSN != 8 {
		t.Fatalf("follower checkpoint LSN %d, want 8", ckLSN)
	}
	var tail [][]byte
	if err := fw.ReplayTail(func(rec []byte) error {
		tail = append(tail, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatalf("follower tail replay: %v", err)
	}
	if len(tail) != 3 || string(tail[0]) != "tail-0" {
		t.Fatalf("follower tail %d records (first %q), want the 3 live ones", len(tail), tail)
	}
}

// TestFollowerIgnoresStaleSnapshot: a snapshot frame at or below the
// follower's mark is a resend the follower has already moved past (the
// leader's idle probe folded its send window back before the first
// copy's ack arrived). Installing it would truncate records the leader
// has already counted toward a quorum, so the follower must re-ack its
// mark and keep them.
func TestFollowerIgnoresStaleSnapshot(t *testing.T) {
	leakcheck.At(t)
	fw := openWAL(t, t.TempDir())
	if err := fw.InstallSnapshot([]byte("snapshot-state"), 8); err != nil {
		t.Fatal(err)
	}
	want := []string{"tail-9", "tail-10", "tail-11"}
	for _, rec := range want {
		if err := fw.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	leader, remote := transport.Pipe(0)
	served := make(chan error, 1)
	go func() { served <- NewFollower(fw).ServeConn(remote) }()
	defer func() {
		leader.Close()
		<-served
	}()
	recv := func(kind uint8) uint64 {
		t.Helper()
		raw, err := leader.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		fr, err := decodeFrame(raw)
		if err != nil || fr.Kind != kind {
			t.Fatalf("frame %+v, %v; want kind %d", fr, err, kind)
		}
		return fr.LSN
	}

	if hw := recv(frHello); hw != 11 {
		t.Fatalf("hello mark %d, want 11", hw)
	}
	if err := leader.Send(encodeFrame(&frame{Kind: frSnapshot, LSN: 8, Payload: []byte("snapshot-state")})); err != nil {
		t.Fatal(err)
	}
	if hw := recv(frAck); hw != 11 {
		t.Fatalf("stale snapshot acked %d, want the current mark 11", hw)
	}
	var tail []string
	if err := fw.ReplayTail(func(rec []byte) error {
		tail = append(tail, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tail) != fmt.Sprint(want) || fw.LSN() != 11 {
		t.Fatalf("follower at LSN %d with tail %q, want LSN 11 with %q", fw.LSN(), tail, want)
	}
}

// TestCrashFaultpointRecovery arms each replica faultpoint as a
// repeating kill, checks the quorum outcome the fault implies, then
// disarms and shows the anti-entropy loop converges the followers and
// restores quorum service — the repair path needs no restart at all
// when the fault was transient.
//
// replica.ack.drop is the interesting one: the follower crashes AFTER
// its durable append, so although every in-band ack is lost, the
// leader learns the true high-water mark from the hello on each
// redial and the quorum is genuinely (and correctly) satisfied.
func TestCrashFaultpointRecovery(t *testing.T) {
	for _, tc := range []struct {
		fp         string
		wantQuorum bool // Replicate succeeds even while the fault fires
	}{
		{fpFollowerCrash, false},
		{fpAckDrop, true},
		{fpNetPartition, false},
	} {
		t.Run(tc.fp, func(t *testing.T) {
			leakcheck.At(t)
			defer faultpoint.Reset()
			c := newCluster(t, 2)
			g := NewGroup(c.leader, c.dialers, fastOpts("t_crash_"+sanitize(tc.fp)))
			defer g.Close()

			lsn, _ := c.leader.AppendLSN([]byte("healthy"))
			if err := g.Replicate(lsn); err != nil {
				t.Fatalf("healthy replicate: %v", err)
			}

			faultpoint.Arm(tc.fp, faultpoint.Kill(tc.fp))
			lsn, _ = c.leader.AppendLSN([]byte("faulted"))
			err := g.Replicate(lsn)
			if tc.wantQuorum && err != nil {
				t.Fatalf("Replicate under %s = %v, want durable-despite-fault success", tc.fp, err)
			}
			if !tc.wantQuorum && !errors.Is(err, ErrNoQuorum) {
				t.Fatalf("Replicate under %s = %v, want ErrNoQuorum", tc.fp, err)
			}

			faultpoint.Reset()
			waitFor(t, "quorum restored", func() bool { return g.Quorum() == nil })
			waitFor(t, "post-fault convergence", g.Converged)
			lsn, _ = c.leader.AppendLSN([]byte("recovered"))
			if err := g.Replicate(lsn); err != nil {
				t.Fatalf("replicate after repair: %v", err)
			}
		})
	}
}

func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '.' {
			b[i] = '_'
		}
	}
	return string(b)
}

// TestStalledFollowerDoesNotBlockAppends pins the no-network-IO-under-
// the-WAL-lock rule: a follower connection that accepts the dial, says
// hello, and then never reads another frame (the black-holed-peer
// shape — Sends to it block forever once the buffer fills) must wedge
// only its own stream. Leader appends must keep completing; before the
// batched read, the streamer sent inside the journal lock and one such
// follower froze every AppendLSN on the shard.
func TestStalledFollowerDoesNotBlockAppends(t *testing.T) {
	leakcheck.At(t)
	leader := openWAL(t, t.TempDir())
	// Backlog so the streamer has records to push the moment it connects.
	for i := 0; i < 8; i++ {
		if _, err := leader.AppendLSN([]byte(fmt.Sprintf("backlog-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stalled := func() (transport.Conn, error) {
		local, remote := transport.Pipe(1)
		go remote.Send(encodeFrame(&frame{Kind: frHello, LSN: 0})) // then never Recv
		return local, nil
	}
	opt := fastOpts("t_stalled")
	opt.Quorum = 1 // leader-local durability; the follower tails asynchronously
	g := NewGroup(leader, []Dialer{stalled}, opt)
	defer g.Close()

	// Wait until the streamer is live (and therefore wedged in Send on
	// the 1-slot pipe), then prove appends still go through.
	waitFor(t, "stalled follower connect", func() bool { return g.followers[0].live.Load() })
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 4; i++ {
			if _, err := leader.AppendLSN([]byte(fmt.Sprintf("live-%d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append alongside stalled follower: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("leader appends blocked behind a stalled follower connection")
	}
}

// TestConcurrentServeConnSerialized races two connections serving the
// same Follower — the displaced-plus-fresh window Host's newest-
// connection-wins policy allows — each streaming the identical record
// sequence. The per-follower apply mutex must make the mark-check +
// append atomic, so the journal ends up with each record exactly once
// and in order; an unserialized follower could double-apply a record
// and silently stop being a prefix of the leader's history.
func TestConcurrentServeConnSerialized(t *testing.T) {
	leakcheck.At(t)
	// SyncNever keeps each apply tight so the two serving goroutines
	// interleave as much as possible across many records.
	fw, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	f := NewFollower(fw)
	const n = 500

	var serving sync.WaitGroup
	conns := make([]transport.Conn, 2)
	for i := range conns {
		local, remote := transport.Pipe(0) // default cap holds all acks unread
		conns[i] = local
		serving.Add(1)
		go func() {
			defer serving.Done()
			f.ServeConn(remote)
		}()
	}
	var senders sync.WaitGroup
	for _, c := range conns {
		senders.Add(1)
		go func(c transport.Conn) {
			defer senders.Done()
			for lsn := 1; lsn <= n; lsn++ {
				rec := []byte(fmt.Sprintf("rec-%d", lsn))
				if err := c.Send(encodeFrame(&frame{Kind: frAppend, LSN: uint64(lsn), Payload: rec})); err != nil {
					t.Errorf("send LSN %d: %v", lsn, err)
					return
				}
			}
		}(c)
	}
	senders.Wait()
	waitFor(t, "apply drain", func() bool { return f.HW() >= n })
	for _, c := range conns {
		c.Close()
	}
	serving.Wait()

	var got []string
	if err := fw.Replay(func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatalf("replaying follower: %v", err)
	}
	if len(got) != n {
		t.Fatalf("follower journal has %d records, want exactly %d (duplicate apply?)", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("rec-%d", i+1); r != want {
			t.Fatalf("record %d = %q, want %q — journal is not a prefix of the leader's history", i, r, want)
		}
	}
}

// TestAsyncQuorumOne: quorum 1 means the leader alone carries the
// write and followers tail asynchronously — Replicate never blocks and
// never degrades, but convergence still happens.
func TestAsyncQuorumOne(t *testing.T) {
	leakcheck.At(t)
	c := newCluster(t, 1)
	opt := fastOpts("t_async")
	opt.Quorum = 1
	g := NewGroup(c.leader, c.dialers, opt)
	defer g.Close()
	for i := 0; i < 5; i++ {
		lsn, _ := c.leader.AppendLSN([]byte(fmt.Sprintf("r%d", i)))
		if err := g.Replicate(lsn); err != nil {
			t.Fatalf("async replicate: %v", err)
		}
	}
	waitFor(t, "async convergence", g.Converged)
}
