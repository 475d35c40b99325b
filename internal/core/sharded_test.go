package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/pki"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// fakeEvidence fabricates a decodable evidence item. The signatures
// are placeholders — journal replay decodes, it never verifies — so
// replay pays the honest decode cost per record and nothing else.
func fakeEvidence(kind evidence.Kind, txn, sender, recipient string, sig []byte) *evidence.Evidence {
	h := &evidence.Header{
		Kind: kind, TxnID: txn, Seq: 1, Nonce: []byte(txn),
		SenderID: sender, RecipientID: recipient,
		ObjectKey: "bench/" + txn, ObjectLen: 4096,
		Timestamp: time.Unix(1700000000, 0),
	}
	h.SetDigests([]byte(txn))
	return &evidence.Evidence{Header: h, DataSig: sig, HeaderSig: sig}
}

// e14Engine builds an n-shard engine whose shard i journals under
// dir/shard-NN — the daemon's on-disk layout — so close-and-reopen
// tests exercise the exact restart path.
func e14Engine(tb testing.TB, dir string, n int, policy wal.SyncPolicy) (*ShardedEngine, func()) {
	tb.Helper()
	ca := pki.NewAuthority("bench-ca", cryptoutil.InsecureTestKey(30))
	id, err := pki.NewIdentity(ca, "bob", cryptoutil.InsecureTestKey(31),
		time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	store := storage.NewMem(nil)
	providers := make([]*Provider, n)
	wals := make([]*wal.WAL, n)
	for i := range providers {
		w, err := wal.Open(filepath.Join(dir, shard.DirName(i)), wal.Options{Policy: policy})
		if err != nil {
			tb.Fatal(err)
		}
		wals[i] = w
		providers[i], err = NewProvider(
			WithIdentity(id),
			WithCAPublicKey(ca.Key()),
			WithDirectory(ca.Lookup),
			WithStore(store),
			WithJournal(w),
		)
		if err != nil {
			tb.Fatal(err)
		}
	}
	e, err := NewShardedEngine(providers)
	if err != nil {
		tb.Fatal(err)
	}
	return e, func() {
		for _, w := range wals {
			w.Close()
		}
	}
}

// e14Populate journals count completed upload sessions through the
// engine's own routing (owner shard per txn), with fakeEvidence: peer
// NRO, own NRR, two state transitions. Returns the per-shard session
// counts.
func e14Populate(tb testing.TB, e *ShardedEngine, from, count int) []int {
	tb.Helper()
	sig := make([]byte, 256)
	perShard := make([]int, e.N())
	for i := from; i < from+count; i++ {
		txn := fmt.Sprintf("txn-%06d", i)
		p := e.ShardFor(txn)
		perShard[e.ShardIndex(txn)]++
		if err := p.putEvidence(txn, evidence.RolePeer, fakeEvidence(evidence.KindNRO, txn, "alice", "bob", sig)); err != nil {
			tb.Fatal(err)
		}
		if err := p.setState(txn, session.StateEvidenceReceived); err != nil {
			tb.Fatal(err)
		}
		if err := p.putEvidence(txn, evidence.RoleOwn, fakeEvidence(evidence.KindNRR, txn, "bob", "alice", sig)); err != nil {
			tb.Fatal(err)
		}
		if err := p.setState(txn, session.StateCompleted); err != nil {
			tb.Fatal(err)
		}
	}
	return perShard
}

func TestShardedRoutingMatchesRing(t *testing.T) {
	e, closer := e14Engine(t, t.TempDir(), 4, wal.SyncNever)
	defer closer()
	ring := shard.New(4)
	for i := 0; i < 2000; i++ {
		txn := fmt.Sprintf("txn-%06d", i)
		want := ring.Shard(txn)
		if got := e.ShardIndex(txn); got != want {
			t.Fatalf("engine routes %q to shard %d, standalone ring says %d", txn, got, want)
		}
		if e.ShardFor(txn) != e.Shard(want) {
			t.Fatalf("ShardFor(%q) is not shard %d", txn, want)
		}
	}
}

// A crash with live sessions spread over every shard must recover in
// full: per-shard reports match what each shard journaled, the merged
// report matches their sum, and the dispute read path serves every
// receipt afterwards.
func TestShardedCrossShardRecovery(t *testing.T) {
	dir := t.TempDir()
	const n, sessions = 4, 64

	e, closer := e14Engine(t, dir, n, wal.SyncNever)
	perShard := e14Populate(t, e, 0, sessions)
	closer() // crash

	spread := 0
	for _, c := range perShard {
		if c > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("sessions landed on %d shard(s); the cross-shard scenario needs at least 2 (per-shard: %v)", spread, perShard)
	}

	e2, closer2 := e14Engine(t, dir, n, wal.SyncNever)
	defer closer2()
	reps, err := e2.RecoverShards(context.Background())
	if err != nil {
		t.Fatalf("RecoverShards: %v", err)
	}
	if len(reps) != n {
		t.Fatalf("got %d per-shard reports, want %d", len(reps), n)
	}
	total := 0
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("shard %d report is nil", i)
		}
		if len(rep.Transactions) != perShard[i] {
			t.Errorf("shard %d recovered %d txns, journaled %d", i, len(rep.Transactions), perShard[i])
		}
		total += len(rep.Transactions)
	}
	if total != sessions {
		t.Fatalf("recovered %d sessions across shards, want %d", total, sessions)
	}
	merged := MergeRecoveryReports(reps)
	if len(merged.Transactions) != sessions || merged.TornTail {
		t.Fatalf("merged report off: %d txns (want %d), torn=%v", len(merged.Transactions), sessions, merged.TornTail)
	}

	// Every receipt is reachable through the engine's dispute read path.
	for i := 0; i < sessions; i++ {
		txn := fmt.Sprintf("txn-%06d", i)
		if _, err := e2.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR); err != nil {
			t.Fatalf("NRR for %s unreachable after recovery: %v", txn, err)
		}
	}
}

// A shard failing mid-fanout (shard.recover.partial) must not wedge
// the others, and — because per-shard recovery is idempotent — a plain
// retry after the fault clears must converge to full recovery.
func TestShardedRecoverPartialRetry(t *testing.T) {
	dir := t.TempDir()
	const n, sessions = 4, 32

	e, closer := e14Engine(t, dir, n, wal.SyncNever)
	e14Populate(t, e, 0, sessions)
	closer()

	e2, closer2 := e14Engine(t, dir, n, wal.SyncNever)
	defer closer2()
	faultpoint.ArmErr("shard.recover.partial", func() error {
		return errors.New("injected: shard recovery failed")
	})
	if _, err := e2.Recover(context.Background()); err == nil {
		faultpoint.Reset()
		t.Fatal("Recover with armed shard.recover.partial succeeded")
	}
	faultpoint.Reset()

	rep, err := e2.Recover(context.Background())
	if err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
	if len(rep.Transactions) != sessions {
		t.Fatalf("retry recovered %d sessions, want %d", len(rep.Transactions), sessions)
	}
}

// A recovery goroutine panicking (Kill-armed faultpoint, or a bug in
// one shard's replay) must be confined to that shard's error slot, not
// crash the process.
func TestShardedRecoverPanicConfined(t *testing.T) {
	dir := t.TempDir()
	e, closer := e14Engine(t, dir, 2, wal.SyncNever)
	e14Populate(t, e, 0, 8)
	closer()

	e2, closer2 := e14Engine(t, dir, 2, wal.SyncNever)
	defer closer2()
	faultpoint.Arm("shard.recover.partial", faultpoint.Kill("shard.recover.partial"))
	_, err := e2.Recover(context.Background())
	faultpoint.Reset()
	if err == nil {
		t.Fatal("Recover with killing faultpoint succeeded")
	}
	if _, err := e2.Recover(context.Background()); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// Evidence written to the WRONG shard (routing bug, stale ring) must
// still be found by the dispute read path: arbitration correctness
// never hinges on routing correctness.
func TestShardedEvidenceWrongShardFallback(t *testing.T) {
	e, closer := e14Engine(t, t.TempDir(), 4, wal.SyncNever)
	defer closer()
	sig := make([]byte, 64)
	txn := "txn-misrouted"
	wrong := (e.ShardIndex(txn) + 1) % e.N()
	if err := e.Shard(wrong).putEvidence(txn, evidence.RoleOwn, fakeEvidence(evidence.KindNRR, txn, "bob", "alice", sig)); err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR)
	if err != nil {
		t.Fatalf("evidence on wrong shard not found: %v", err)
	}
	if ev.Header.TxnID != txn {
		t.Fatalf("found evidence for %q, want %q", ev.Header.TxnID, txn)
	}
}

// The wrong-shard faultpoint misroutes live traffic; the engine must
// still answer disputes for the misrouted transaction.
func TestShardedWrongShardFaultpointRouting(t *testing.T) {
	e, closer := e14Engine(t, t.TempDir(), 4, wal.SyncNever)
	defer closer()
	txn := "txn-deflected"
	owner := e.ShardIndex(txn)
	faultpoint.ArmErr("shard.route.wrong-shard", func() error {
		return errors.New("injected: stale ring")
	})
	got := e.routeIndex(txn)
	faultpoint.Reset()
	if got == owner {
		t.Fatal("armed wrong-shard faultpoint did not deflect routing")
	}
	if clean := e.routeIndex(txn); clean != owner {
		t.Fatalf("disarmed routing gives %d, want owner %d", clean, owner)
	}
}

// One shard's journal going sticky-degraded degrades the whole
// daemon's health report — naming the shard — while the other shards
// stay healthy and DegradedShards pinpoints the sick one.
func TestShardedHealthDegradedShard(t *testing.T) {
	e, closer := e14Engine(t, t.TempDir(), 4, wal.SyncAlways)
	defer closer()
	if err := e.Health(); err != nil {
		t.Fatalf("fresh engine unhealthy: %v", err)
	}

	// Fill the disk under exactly one shard's next append.
	sick := 2
	faultpoint.ArmErr("wal.append.enospc", func() error {
		return errors.New("write: no space left on device")
	})
	sig := make([]byte, 64)
	if err := e.Shard(sick).putEvidence("txn-degrade", evidence.RolePeer, fakeEvidence(evidence.KindNRO, "txn-degrade", "alice", "bob", sig)); err == nil {
		faultpoint.Reset()
		t.Fatal("append with ENOSPC armed succeeded")
	}
	faultpoint.Reset()

	if err := e.Health(); err == nil {
		t.Fatal("engine healthy with a degraded shard")
	}
	if !e.Degraded() {
		t.Fatal("Degraded() false with a degraded shard")
	}
	deg := e.DegradedShards()
	if len(deg) != 1 || deg[0] != sick {
		t.Fatalf("DegradedShards() = %v, want [%d]", deg, sick)
	}
	for i := 0; i < e.N(); i++ {
		if i != sick && e.Shard(i).Degraded() {
			t.Fatalf("healthy shard %d reports degraded", i)
		}
	}
}

// e14ColdEngine is e14Engine plus a per-shard cold archive under
// dir/shard-NN/cold, so checkpoint compaction has somewhere to move
// terminal sessions' evidence.
func e14ColdEngine(tb testing.TB, dir string, n int) (*ShardedEngine, func()) {
	tb.Helper()
	ca := pki.NewAuthority("bench-ca", cryptoutil.InsecureTestKey(30))
	id, err := pki.NewIdentity(ca, "bob", cryptoutil.InsecureTestKey(31),
		time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	store := storage.NewMem(nil)
	providers := make([]*Provider, n)
	closers := make([]func(), 0, 2*n)
	for i := range providers {
		w, err := wal.Open(filepath.Join(dir, shard.DirName(i)), wal.Options{Policy: wal.SyncNever})
		if err != nil {
			tb.Fatal(err)
		}
		cold, err := archive.Open(filepath.Join(dir, shard.DirName(i), "cold"))
		if err != nil {
			tb.Fatal(err)
		}
		closers = append(closers, func() { w.Close() }, func() { cold.Close() })
		providers[i], err = NewProvider(
			WithIdentity(id),
			WithCAPublicKey(ca.Key()),
			WithDirectory(ca.Lookup),
			WithStore(store),
			WithJournal(w),
			WithArchive(cold),
		)
		if err != nil {
			tb.Fatal(err)
		}
	}
	e, err := NewShardedEngine(providers)
	if err != nil {
		tb.Fatal(err)
	}
	return e, func() {
		for _, fn := range closers {
			fn()
		}
	}
}

// e14AuditSession journals a completed upload session WITH storage-dwell
// audit evidence (challenge as peer, response as own — the provider's
// view of a round it answered, DESIGN.md §14) directly onto shard p.
func e14AuditSession(tb testing.TB, p *Provider, txn string) {
	tb.Helper()
	sig := make([]byte, 64)
	put := func(role evidence.Role, kind evidence.Kind, seq uint64) {
		tb.Helper()
		ev := fakeEvidence(kind, txn, "alice", "bob", sig)
		if role == evidence.RoleOwn {
			ev.Header.SenderID, ev.Header.RecipientID = "bob", "alice"
		}
		ev.Header.Seq = seq
		ev.Header.Nonce = []byte(fmt.Sprintf("%s-%d", txn, seq))
		if err := p.putEvidence(txn, role, ev); err != nil {
			tb.Fatal(err)
		}
	}
	put(evidence.RolePeer, evidence.KindNRO, 1)
	if err := p.setState(txn, session.StateEvidenceReceived); err != nil {
		tb.Fatal(err)
	}
	put(evidence.RoleOwn, evidence.KindNRR, 2)
	if err := p.setState(txn, session.StateCompleted); err != nil {
		tb.Fatal(err)
	}
	put(evidence.RolePeer, evidence.KindAuditChallenge, 3)
	put(evidence.RoleOwn, evidence.KindAuditResponse, 4)
}

// Audit evidence compacted into a shard's COLD archive must stay
// reachable through the engine's dispute read path (owner shard first,
// then the all-shard sweep) — including when the session was deflected
// onto the wrong shard by shard.route.wrong-shard. A lazy-provider
// conviction (DESIGN.md §14) can hinge on a challenge journaled long
// before arbitration, so hot→cold movement and misrouting must both be
// invisible to EvidenceByKind.
func TestShardedColdArchiveAuditEvidence(t *testing.T) {
	e, closer := e14ColdEngine(t, t.TempDir(), 4)
	defer closer()

	// Correctly routed session on its owner shard.
	txnOwned := "txn-audit-cold"
	owner := e.ShardIndex(txnOwned)
	e14AuditSession(t, e.Shard(owner), txnOwned)

	// Session deflected by the wrong-shard faultpoint: route through the
	// engine's own (armed) routing to land on whatever shard a stale
	// ring would pick, exactly as live traffic would.
	txnDeflected := "txn-audit-deflected"
	faultpoint.ArmErr("shard.route.wrong-shard", func() error {
		return errors.New("injected: stale ring")
	})
	deflected := e.routeIndex(txnDeflected)
	faultpoint.Reset()
	if deflected == e.ShardIndex(txnDeflected) {
		t.Fatal("armed wrong-shard faultpoint did not deflect routing")
	}
	e14AuditSession(t, e.Shard(deflected), txnDeflected)

	// Compact every shard: both sessions are terminal, so their evidence
	// moves hot→cold.
	rep, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if rep.Archived < 2 {
		t.Fatalf("checkpoint archived %d sessions, want >= 2", rep.Archived)
	}

	for _, tc := range []struct {
		txn   string
		shard int
	}{
		{txnOwned, owner},
		{txnDeflected, deflected},
	} {
		// The hot store really is empty — what follows must come from the
		// cold archive, not a lingering hot copy.
		if e.Shard(tc.shard).hotByKind(tc.txn, evidence.RolePeer, evidence.KindAuditChallenge) != nil {
			t.Fatalf("%s: audit challenge still hot after checkpoint", tc.txn)
		}
		ch, err := e.EvidenceByKind(tc.txn, evidence.RolePeer, evidence.KindAuditChallenge)
		if err != nil {
			t.Fatalf("%s: compacted audit challenge unreachable: %v", tc.txn, err)
		}
		if ch.Header.Kind != evidence.KindAuditChallenge || ch.Header.TxnID != tc.txn {
			t.Fatalf("%s: wrong evidence returned: kind=%v txn=%q", tc.txn, ch.Header.Kind, ch.Header.TxnID)
		}
		resp, err := e.EvidenceByKind(tc.txn, evidence.RoleOwn, evidence.KindAuditResponse)
		if err != nil {
			t.Fatalf("%s: compacted audit response unreachable: %v", tc.txn, err)
		}
		if resp.Header.Kind != evidence.KindAuditResponse {
			t.Fatalf("%s: wrong response kind %v", tc.txn, resp.Header.Kind)
		}
	}
}

// The shard-aware pool pins released connections to their shard's free
// list: a txn's retries and follow-ups reuse a connection warmed for
// its shard, and a different shard's operations never steal it.
func TestPoolShardPinning(t *testing.T) {
	net := transport.NewNetwork()
	l, err := net.Listen("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	dials := 0
	pool := NewSessionPool(nil, func(ctx context.Context) (transport.Conn, error) {
		dials++
		return net.DialContext(ctx, "bob")
	}, PoolShardRing(shard.New(4)))
	defer pool.Close()

	// Two transactions on different shards.
	txnA := "txn-000000"
	var txnB string
	for i := 1; ; i++ {
		txnB = fmt.Sprintf("txn-%06d", i)
		if pool.ShardOf(txnB) != pool.ShardOf(txnA) {
			break
		}
	}
	sa, sb := pool.ShardOf(txnA), pool.ShardOf(txnB)

	ctx := context.Background()
	connA, err := pool.acquire(ctx, sa)
	if err != nil {
		t.Fatal(err)
	}
	pool.release(connA, sa)
	if dials != 1 {
		t.Fatalf("dials = %d, want 1", dials)
	}

	// txnB's shard must NOT reuse txnA's connection.
	connB, err := pool.acquire(ctx, sb)
	if err != nil {
		t.Fatal(err)
	}
	if connB == connA {
		t.Fatal("shard B reused shard A's pinned connection")
	}
	pool.release(connB, sb)
	if dials != 2 {
		t.Fatalf("dials = %d, want 2", dials)
	}

	// txnA's shard DOES reuse its own.
	again, err := pool.acquire(ctx, sa)
	if err != nil {
		t.Fatal(err)
	}
	if again != connA {
		t.Fatal("shard A did not reuse its pinned connection")
	}
	pool.release(again, sa)
	if dials != 2 {
		t.Fatalf("dials = %d after reuse, want 2", dials)
	}
}

// Routing stability across "reconnects": a fresh pool over a fresh
// ring — a client restart — must place every txn on the same shard.
func TestPoolShardRoutingStability(t *testing.T) {
	mk := func() *SessionPool {
		return NewSessionPool(nil, func(ctx context.Context) (transport.Conn, error) {
			return nil, errors.New("no dial in this test")
		}, PoolShardRing(shard.New(8)))
	}
	p1, p2 := mk(), mk()
	defer p1.Close()
	defer p2.Close()
	e, closer := e14Engine(t, t.TempDir(), 8, wal.SyncNever)
	defer closer()
	for i := 0; i < 5000; i++ {
		txn := fmt.Sprintf("txn-%08d", i)
		if p1.ShardOf(txn) != p2.ShardOf(txn) {
			t.Fatalf("txn %q moved shards across pool restarts", txn)
		}
		if p1.ShardOf(txn) != e.ShardIndex(txn) {
			t.Fatalf("pool and engine disagree on %q: %d vs %d", txn, p1.ShardOf(txn), e.ShardIndex(txn))
		}
	}
}
