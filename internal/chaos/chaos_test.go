// Package chaos is the crash-fault injection suite: it kills the
// protocol engines at every registered faultpoint, restarts them from
// their journals on the same "disk" (WAL directories + blob store),
// drives the §4.3 recovery procedure, and asserts the dispute
// invariant — the system is never left half-bound, where the provider
// holds the client's NRO but the client can obtain neither a receipt,
// an abort acceptance, nor a TTP statement (or vice versa).
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// chaosTimeout is the protocol response timeout for chaos worlds:
// short enough that the many deliberate timeouts stay cheap, long
// enough that honest exchanges never trip it under -race.
const chaosTimeout = 500 * time.Millisecond

// world is one running deployment plus the durable state a restart
// reopens: the client and TTP WAL directories, Bob's per-shard WALs
// (one when TPNR_SHARDS is unset), the matching cold evidence
// archives, and the shared blob store.
type world struct {
	d      *deploy.Deployment
	store  storage.Store
	cw, tw *wal.WAL
	ca, ta *archive.Store
	pw     []*wal.WAL
	pa     []*archive.Store
}

// chaosShards resolves the provider shard count for every world the
// suite builds. Default 1 — the classic single-provider deployment;
// TPNR_SHARDS=4 (wired through the Makefile's chaos-sharded target and
// the CI matrix) reruns the whole suite with evidence routed across
// per-shard journals and archives behind a core.ShardedEngine.
func chaosShards(t *testing.T) int {
	t.Helper()
	env := os.Getenv("TPNR_SHARDS")
	if env == "" {
		return 1
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1 {
		t.Fatalf("TPNR_SHARDS: bad shard count %q", env)
	}
	return n
}

// chaosReplicas resolves the provider journal replication factor.
// Default 1 — no replication, the classic deployment; TPNR_REPLICAS=3
// (the Makefile's chaos-replicated target and the CI matrix) reruns
// the whole suite with every provider journal append quorum-replicated
// (R=3, write quorum 2) before the protocol step is acked.
func chaosReplicas(t *testing.T) int {
	t.Helper()
	env := os.Getenv("TPNR_REPLICAS")
	if env == "" {
		return 1
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1 {
		t.Fatalf("TPNR_REPLICAS: bad replica count %q", env)
	}
	return n
}

func openWorld(t *testing.T, dir string, store storage.Store) *world {
	t.Helper()
	shards := chaosShards(t)
	replicas := chaosReplicas(t)
	open := func(sub string) *wal.WAL {
		// Group commit is the production fsync policy; running the whole
		// chaos suite in it re-proves "acked ⇒ synced" under coalescing.
		w, err := wal.Open(filepath.Join(dir, sub), wal.Options{Policy: wal.SyncGroup})
		if err != nil {
			t.Fatalf("opening %s journal: %v", sub, err)
		}
		return w
	}
	openArc := func(sub string) *archive.Store {
		s, err := archive.Open(filepath.Join(dir, sub+"-archive"))
		if err != nil {
			t.Fatalf("opening %s archive: %v", sub, err)
		}
		return s
	}
	cw, tw := open("client"), open("ttp")
	ca, ta := openArc("client"), openArc("ttp")
	// Bob's journals mirror nrserver's on-disk contract: flat
	// "provider" when unsharded, "provider/shard-NN" per shard
	// otherwise — a restart MUST reopen the same layout.
	pw := make([]*wal.WAL, shards)
	pa := make([]*archive.Store, shards)
	for i := range pw {
		sub := "provider"
		if shards > 1 {
			sub = filepath.Join("provider", shard.DirName(i))
		}
		pw[i] = open(sub)
		pa[i] = openArc(sub)
	}
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: chaosTimeout,
		ProviderStore:   store,
		ClientOpts:      []core.Option{core.WithJournal(cw), core.WithArchive(ca)},
		ProviderShards:  shards,
		ProviderShardOpts: func(i int) []core.Option {
			return []core.Option{core.WithJournal(pw[i]), core.WithArchive(pa[i])}
		},
		TTPOpts: []core.Option{core.WithJournal(tw), core.WithArchive(ta)},
		// With TPNR_REPLICAS>1 every provider journal gains followers on
		// the same "disk" (nrserver's replica-NN layout, reopened across
		// restarts); the deployment closes what it opens here. The ack
		// timeout sits under chaosTimeout so a lost quorum surfaces as the
		// provider's signed refusal, not as client-side silence.
		ProviderReplicas: replicas,
		ReplicaWAL: func(s, r int) (*wal.WAL, error) {
			sub := "provider"
			if shards > 1 {
				sub = filepath.Join("provider", shard.DirName(s))
			}
			return wal.Open(filepath.Join(dir, sub, fmt.Sprintf("replica-%02d", r)),
				wal.Options{Policy: wal.SyncGroup})
		},
		ReplicaAckTimeout:     300 * time.Millisecond,
		ReplicaRepairInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{d: d, store: store, cw: cw, tw: tw, ca: ca, ta: ta, pw: pw, pa: pa}
}

// crash tears the world down with no graceful protocol steps — the
// moral equivalent of SIGKILL.
func (w *world) crash() {
	w.d.Close()
	w.cw.Close()
	w.tw.Close()
	w.ca.Close()
	w.ta.Close()
	for _, pw := range w.pw {
		pw.Close()
	}
	for _, pa := range w.pa {
		pa.Close()
	}
}

// recoverAll replays all three journals on a freshly opened world.
func (w *world) recoverAll(t *testing.T) (crep, prep, trep *core.RecoveryReport) {
	t.Helper()
	ctx := context.Background()
	var err error
	if crep, err = w.d.Client.Recover(ctx); err != nil {
		t.Fatalf("client recover: %v", err)
	}
	if prep, err = w.d.Engine.Recover(ctx); err != nil {
		t.Fatalf("provider recover: %v", err)
	}
	if trep, err = w.d.TTPServer.Recover(ctx); err != nil {
		t.Fatalf("ttp recover: %v", err)
	}
	return crep, prep, trep
}

// runRecovering runs fn, converting a faultpoint kill on this
// goroutine (a client-side simulated crash) into an error. Provider
// and TTP kills panic inside their server runtimes, which absorb them;
// the caller just sees a timeout.
func runRecovering(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*faultpoint.Crash)
			if !ok {
				panic(r)
			}
			err = c
		}
	}()
	return fn()
}

// runScenario drives the protocol flow in which faultpoint pt fires.
// wrap, when non-nil, decorates the client→provider connection (the
// randomized suite injects transport faults through it). Errors from
// the flow itself are expected — a crash mid-protocol IS the test.
func runScenario(t *testing.T, w *world, pt, txn, key string, data []byte, wrap func(transport.Conn) transport.Conn) {
	t.Helper()
	ctx := context.Background()
	dialProvider := func() transport.Conn {
		c, err := w.d.DialProvider()
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			return wrap(c)
		}
		return c
	}
	// stallUpload puts the provider in the §4.1 unfairness position:
	// it holds the NRO (and the data) but withheld the NRR.
	stallUpload := func(conn transport.Conn) {
		w.d.Engine.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
		_, err := w.d.Client.Upload(ctx, conn, txn, key, data)
		w.d.Engine.SetMisbehavior(core.Misbehavior{})
		if err == nil {
			t.Fatal("upload to a silent provider succeeded")
		}
	}
	switch {
	case strings.HasPrefix(pt, "client.upload") || strings.HasPrefix(pt, "provider.upload") ||
		strings.HasPrefix(pt, "wal.append") || strings.HasPrefix(pt, "server.handle") ||
		strings.HasPrefix(pt, "replica."):
		// A WAL-append fault fires at the first journaled transition of
		// the upload; a server-handle fault fires inside the provider's
		// runtime. Both are reached by the plain upload flow. Replication
		// faults fire on the follower stream that same first append feeds
		// (in replicated worlds — unsharded ones have no stream, like
		// shard.route below): the replication goroutines absorb the kill
		// and the upload either completes on the surviving quorum
		// (ack.drop — the record was durable before the ack vanished) or
		// fails with the provider's quorum-unavailable refusal.
		conn := dialProvider()
		defer conn.Close()
		runRecovering(func() error {
			_, err := w.d.Client.Upload(ctx, conn, txn, key, data)
			return err
		})
	case strings.HasPrefix(pt, "pool.ttp"):
		// The escalation-path fault needs a SessionPool: the stalled
		// upload escalates to the TTP and the kill fires at the dial.
		pool := w.d.NewPool(core.PoolRetries(1), core.PoolBackoff(time.Millisecond))
		defer pool.Close()
		w.d.Engine.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
		runRecovering(func() error {
			_, err := pool.Upload(ctx, txn, key, data)
			return err
		})
		w.d.Engine.SetMisbehavior(core.Misbehavior{})
	case strings.HasPrefix(pt, "provider.abort"):
		conn := dialProvider()
		defer conn.Close()
		stallUpload(conn)
		runRecovering(func() error {
			_, err := w.d.Client.Abort(ctx, conn, txn, "chaos abort")
			return err
		})
	case strings.HasPrefix(pt, "client.resolve") || strings.HasPrefix(pt, "ttp.resolve"):
		conn := dialProvider()
		stallUpload(conn)
		conn.Close()
		tc, err := w.d.DialTTP()
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		runRecovering(func() error {
			_, err := w.d.Client.Resolve(ctx, tc, txn, "chaos resolve")
			return err
		})
	case strings.HasPrefix(pt, "shard.route"):
		// The misroute fault fires inside the sharded engine's routing
		// step, before any shard handles the frame: the plain upload flow
		// reaches it on the first routed message. (Unsharded worlds never
		// route, so the point cannot fire there — the per-point suite
		// skips it and the randomized suite just gets a clean upload.)
		conn := dialProvider()
		defer conn.Close()
		runRecovering(func() error {
			_, err := w.d.Client.Upload(ctx, conn, txn, key, data)
			return err
		})
	case strings.HasPrefix(pt, "shard.recover"):
		// The partial-recovery fault fires at the head of each shard's
		// recovery goroutine. Journal a session, then recover with the
		// point armed: the fan-out confines the failure to an error, and
		// the restart's clean recovery must converge anyway — per-shard
		// replay is idempotent.
		conn := dialProvider()
		if _, err := w.d.Client.Upload(ctx, conn, txn, key, data); err != nil {
			t.Logf("pre-recovery upload failed (%v); recovering the unfinished session", err)
		}
		conn.Close()
		runRecovering(func() error {
			_, err := w.d.Engine.Recover(ctx)
			return err
		})
	case strings.HasPrefix(pt, "provider.audit"):
		// Audit faults fire inside the provider's challenge handler, so
		// they need a bound session first: a clean upload plants the root
		// commitment in the NRR, then a storage-dwell audit on the same
		// connection walks into the armed point. The audit failing (or
		// the provider dying mid-answer) IS the test — the journaled
		// challenge must survive the crash as conviction material.
		conn := dialProvider()
		defer conn.Close()
		if _, err := w.d.Client.Upload(ctx, conn, txn, key, data); err != nil {
			// Possible over the randomized suite's lossy link: without a
			// receipt there is nothing to audit, but the armed kill must
			// still fire for the per-point suite, so fall through and let
			// AuditObject fail on the missing NRR.
			t.Logf("pre-audit upload failed (%v); auditing the unfinished session", err)
		}
		runRecovering(func() error {
			_, err := w.d.Client.AuditObject(ctx, conn, txn, core.DefaultAuditChallenges)
			return err
		})
	case strings.HasPrefix(pt, "wal.checkpoint") || strings.HasPrefix(pt, "wal.compact") ||
		strings.HasPrefix(pt, "archive.append"):
		// Checkpoint/compaction faults fire AFTER a clean session: the
		// upload completes, then each party dies somewhere inside its
		// checkpoint — mid-archive-append, before or after the snapshot
		// rename, or mid-segment-truncation. The dispute invariant must
		// hold whichever tier the evidence was in when the power failed.
		conn := dialProvider()
		if _, err := w.d.Client.Upload(ctx, conn, txn, key, data); err != nil {
			// Possible over the randomized suite's lossy link: the session
			// is then half-finished, which checkpointing must also survive.
			t.Logf("pre-checkpoint upload failed (%v); checkpointing the unfinished session", err)
		}
		conn.Close()
		runRecovering(func() error {
			_, err := w.d.Client.Checkpoint()
			return err
		})
		runRecovering(func() error {
			_, err := w.d.Engine.Checkpoint()
			return err
		})
		runRecovering(func() error {
			_, err := w.d.TTPServer.Checkpoint()
			return err
		})
	default:
		t.Fatalf("no chaos scenario covers faultpoint %q — add one", pt)
	}
}

// converge drives one unfinished transaction through §4.3 until it
// reaches a terminal outcome: Resolve via the TTP, re-uploading over a
// clean link when the provider answers "restart" (it never received
// the data).
func (w *world) converge(t *testing.T, txn, key string, data []byte) {
	t.Helper()
	ctx := context.Background()
	for attempt := 0; attempt < 3; attempt++ {
		tc, err := w.d.DialTTP()
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.d.Client.Resolve(ctx, tc, txn, "post-crash escalation")
		tc.Close()
		if err != nil {
			t.Fatalf("resolving %s after restart: %v", txn, err)
		}
		if res.Outcome != "restart" {
			return // continue / aborted / TTP statement — all terminal
		}
		pc, err := w.d.DialProvider()
		if err != nil {
			t.Fatal(err)
		}
		_, uerr := w.d.Client.Upload(ctx, pc, txn, key, data)
		pc.Close()
		if uerr == nil {
			return
		}
		t.Logf("re-upload of %s failed (%v), retrying", txn, uerr)
	}
	t.Fatalf("transaction %s did not converge in 3 attempts", txn)
}

// assertDisputeInvariant checks that a crash never left a half-bound
// state: if the provider archived the client's NRO, the client must
// hold an NRR, an abort acceptance, or a TTP statement for the
// transaction — something to take to an arbitrator. Conversely an NRR
// in the client's hands implies the provider holds the NRO it is a
// receipt for.
func assertDisputeInvariant(t *testing.T, w *world, txn, key string) {
	t.Helper()
	// EvidenceByKind reads hot-then-cold (and, sharded, owner-shard-
	// then-sweep), so the invariant holds no matter which storage tier
	// or shard a crash left the evidence in.
	_, bobErr := w.d.Engine.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO)
	_, nrrErr := w.d.Client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRR)
	_, abortErr := w.d.Client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindAbortAccept)
	_, stmtErr := w.d.Client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindResolveResponse)

	if bobErr != nil {
		// Provider never bound — then no receipt may exist either.
		if nrrErr == nil {
			t.Errorf("half-bound %s: client holds an NRR but provider never archived the NRO", txn)
		}
		return
	}
	if nrrErr != nil && abortErr != nil && stmtErr != nil {
		t.Errorf("half-bound %s: provider holds the client's NRO but client has no NRR, abort receipt, or TTP statement", txn)
	}
	if abortErr == nil && nrrErr != nil {
		// Provably aborted: the honored abort must have dropped the blob.
		if _, err := w.store.Get(key); err == nil {
			t.Errorf("aborted %s but object %q is still stored", txn, key)
		}
	}
}

// arbitrateCompleted submits a completed transaction to the off-line
// arbitrator with the data the store currently holds; the verdict must
// clear the provider (the data matches the agreed digest).
func arbitrateCompleted(t *testing.T, w *world, txn, key string) {
	t.Helper()
	nro, err := w.d.Client.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRO)
	if err != nil {
		t.Fatalf("completed %s without an own NRO: %v", txn, err)
	}
	nrr, err := w.d.Client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRR)
	if err != nil {
		t.Fatalf("completed %s without a peer NRR: %v", txn, err)
	}
	obj, err := w.store.Get(key)
	if err != nil {
		t.Fatalf("completed %s but store lost %q: %v", txn, key, err)
	}
	arb := arbitrator.NewWithKey(w.d.CA.Key(), w.d.CA.Lookup, nil)
	dec := arb.Decide(&arbitrator.Case{
		TxnID:        txn,
		ObjectKey:    key,
		ClaimantID:   deploy.ClientName,
		RespondentID: deploy.ProviderName,
		ClaimantNRO:  nro,
		ClaimantNRR:  nrr,
		ProducedData: obj.Data,
	})
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Errorf("arbitration of recovered %s = %s, want %s; findings: %v",
			txn, dec.Verdict, arbitrator.VerdictClaimFalse, dec.Findings)
	}
}

// TestChaosEveryFaultpoint kills the system at each registered
// faultpoint in turn, restarts from the journals, escalates whatever
// the crash left unfinished, and asserts the dispute invariant.
func TestChaosEveryFaultpoint(t *testing.T) {
	points := faultpoint.List()
	if len(points) < 23 {
		t.Fatalf("only %d faultpoints registered; the engines lost their kill sites", len(points))
	}
	for _, want := range []string{
		"wal.checkpoint.pre-rename", "wal.checkpoint.post-rename",
		"wal.compact.mid-truncate", "archive.append.partial",
		"provider.audit.drop-challenge", "provider.audit.stale-proof",
		"provider.audit.crash-mid-audit",
		"replica.ack.drop", "replica.follower.crash", "replica.net.partition",
	} {
		found := false
		for _, pt := range points {
			if pt == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("checkpoint faultpoint %q is not registered", want)
		}
	}
	shards := chaosShards(t)
	replicas := chaosReplicas(t)
	for _, pt := range points {
		t.Run(pt, func(t *testing.T) {
			if strings.HasPrefix(pt, "shard.") && shards < 2 {
				t.Skipf("faultpoint %q lives in the sharded engine; run with TPNR_SHARDS>=2 (make chaos-sharded)", pt)
			}
			if strings.HasPrefix(pt, "replica.") && replicas < 2 {
				t.Skipf("faultpoint %q lives in the replication stream; run with TPNR_REPLICAS>=2 (make chaos-replicated)", pt)
			}
			defer faultpoint.Reset()
			dir := t.TempDir()
			store := storage.NewMem(time.Now)
			txn := "txn-chaos-" + pt
			key := "chaos/" + pt
			data := []byte("chaos payload for " + pt)

			var fired atomic.Bool
			faultpoint.Arm(pt, func() {
				fired.Store(true)
				faultpoint.Kill(pt)()
			})
			w := openWorld(t, dir, store)
			runScenario(t, w, pt, txn, key, data, nil)
			faultpoint.Reset()
			w.crash()
			if !fired.Load() {
				t.Fatalf("faultpoint %q never fired; the scenario does not reach its kill site", pt)
			}

			w2 := openWorld(t, dir, store)
			defer w2.crash()
			crep, _, trep := w2.recoverAll(t)
			if pt == "ttp.resolve.after-open-before-query" && len(trep.OpenResolves) == 0 {
				t.Error("TTP died between open and close but recovery reports no open resolves")
			}
			for _, needy := range crep.NeedsResolve {
				w2.converge(t, needy, key, data)
			}
			assertDisputeInvariant(t, w2, txn, key)
			if _, err := w2.d.Client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRR); err == nil {
				arbitrateCompleted(t, w2, txn, key)
			}
		})
	}
}

// TestChaosReplicaSurvivingQuorum is the headline replication claim at
// R=3 / write quorum 2: kill any single replica mid-upload — follower
// crash, dropped ack, or a partitioned leader stream — and the upload
// MUST still succeed through the surviving quorum; every acked receipt
// is then recoverable from a surviving follower's journal alone, and a
// full restart converges the lagging replica by anti-entropy with no
// operator action.
func TestChaosReplicaSurvivingQuorum(t *testing.T) {
	shards := chaosShards(t)
	replicas := chaosReplicas(t)
	if replicas < 3 {
		t.Skipf("kill-one-replica needs a surviving quorum; run with TPNR_REPLICAS>=3 (make chaos-replicated)")
	}
	ctx := context.Background()
	for _, pt := range []string{"replica.follower.crash", "replica.ack.drop", "replica.net.partition"} {
		t.Run(pt, func(t *testing.T) {
			defer faultpoint.Reset()
			dir := t.TempDir()
			store := storage.NewMem(time.Now)
			txn := "txn-quorum-" + pt
			key := "quorum/" + pt
			data := []byte("surviving quorum payload for " + pt)

			// Arm ONCE-ONLY: the first stream to reach the point dies —
			// exactly one replica lost mid-upload — and everyone else keeps
			// running. (The per-point suite above arms every hit, which
			// takes the whole quorum down; here the claim is that losing
			// any single node is invisible to the client.)
			var once atomic.Bool
			faultpoint.Arm(pt, func() {
				if once.CompareAndSwap(false, true) {
					faultpoint.Kill(pt)()
				}
			})
			w := openWorld(t, dir, store)
			conn, err := w.d.DialProvider()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.d.Client.Upload(ctx, conn, txn, key, data); err != nil {
				t.Fatalf("upload did not survive a single-replica %s fault: %v", pt, err)
			}
			conn.Close()
			faultpoint.Reset()
			if !once.Load() {
				t.Fatalf("faultpoint %q never fired; the upload does not reach its kill site", pt)
			}

			// Quorum-before-ack means some follower of the shard that
			// served txn durably holds every record up to the last acked
			// append; marks only advance, so the max-mark follower's
			// journal is a prefix that covers the whole receipt. Remember
			// which one before pulling the plug.
			si := 0
			if shards > 1 {
				si = shard.New(shards).Shard(txn)
			}
			g := w.d.ReplicaGroups[si]
			survivor, survivorHW := 1, uint64(0)
			for i := 0; i < replicas-1; i++ {
				if hw := g.FollowerHW(i); hw >= survivorHW {
					survivor, survivorHW = i+1, hw
				}
			}
			if survivorHW == 0 {
				t.Fatal("no follower acked anything; quorum accounting is broken")
			}
			w.crash()

			// Restart the full world on the same disk: the replica that
			// took the fault must converge by anti-entropy alone, and the
			// recovered transaction must arbitrate clean.
			w2 := openWorld(t, dir, store)
			crashed := false
			crash2 := func() {
				if !crashed {
					crashed = true
					w2.crash()
				}
			}
			defer crash2()
			w2.recoverAll(t)
			assertDisputeInvariant(t, w2, txn, key)
			arbitrateCompleted(t, w2, txn, key)
			deadline := time.Now().Add(5 * time.Second)
			for {
				all := true
				for _, rg := range w2.d.ReplicaGroups {
					if !rg.Converged() {
						all = false
					}
				}
				if all {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("restarted replicas did not converge by anti-entropy")
				}
				time.Sleep(10 * time.Millisecond)
			}
			crash2()

			// Leader-loss drill: a provider rebuilt over the surviving
			// follower's journal alone still holds both halves of the
			// evidence pair the client walked away with.
			sub := "provider"
			if shards > 1 {
				sub = filepath.Join("provider", shard.DirName(si))
			}
			fw, err := wal.Open(filepath.Join(dir, sub, fmt.Sprintf("replica-%02d", survivor)),
				wal.Options{Policy: wal.SyncGroup})
			if err != nil {
				t.Fatalf("reopening survivor journal: %v", err)
			}
			defer fw.Close()
			d3, err := deploy.New(deploy.Config{
				TestKeys:      true,
				ProviderStore: store,
				ProviderOpts:  []core.Option{core.WithJournal(fw)},
			})
			if err != nil {
				t.Fatalf("deploy over survivor journal: %v", err)
			}
			defer d3.Close()
			if _, err := d3.Provider.Recover(ctx); err != nil {
				t.Fatalf("recover over survivor journal: %v", err)
			}
			if _, err := d3.Provider.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err != nil {
				t.Errorf("survivor recovery lost the NRO for %s: %v", txn, err)
			}
			if _, err := d3.Provider.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR); err != nil {
				t.Errorf("survivor recovery lost the NRR for %s: %v", txn, err)
			}
		})
	}
}

// chaosSeeds returns the pinned seed matrix for the randomized suite.
// The default is fixed so failures reproduce across machines; CI and
// local runs can widen or change it with CHAOS_SEEDS="1 7 42 99"
// (space-separated, wired through the Makefile's CHAOS_SEEDS variable).
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 7, 42}
	}
	var seeds []int64
	for _, f := range strings.Fields(env) {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	if len(seeds) == 0 {
		t.Fatal("CHAOS_SEEDS is set but holds no seeds")
	}
	return seeds
}

// TestChaosRandomized runs multi-round crash-restart sequences with
// fixed seeds: each round picks a faultpoint at random, runs its
// scenario over a deliberately lossy link, crashes, restarts on the
// same disk, converges, and re-checks the dispute invariant for every
// transaction ever started.
func TestChaosRandomized(t *testing.T) {
	seeds := chaosSeeds(t)
	rounds := 4
	if testing.Short() {
		seeds = seeds[:1]
		rounds = 2
	}
	points := faultpoint.List()
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer faultpoint.Reset()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			store := storage.NewMem(time.Now)
			w := openWorld(t, dir, store)
			defer func() { w.crash() }()

			type txnInfo struct {
				key  string
				data []byte
			}
			txns := make(map[string]*txnInfo)
			var conns []*transport.FaultyConn
			wrap := func(c transport.Conn) transport.Conn {
				fc := transport.Faulty(c, transport.FaultSpec{
					DropProb: 0.10,
					DupProb:  0.20,
					Seed:     rng.Int63(),
				})
				conns = append(conns, fc)
				return fc
			}

			for round := 0; round < rounds; round++ {
				pt := points[rng.Intn(len(points))]
				txn := fmt.Sprintf("txn-s%d-r%d", seed, round)
				info := &txnInfo{
					key:  fmt.Sprintf("chaos/obj-s%d-r%d", seed, round),
					data: []byte(fmt.Sprintf("payload %d/%d", seed, round)),
				}
				txns[txn] = info

				faultpoint.Arm(pt, faultpoint.Kill(pt))
				runScenario(t, w, pt, txn, info.key, info.data, wrap)
				faultpoint.Reset()
				w.crash()

				w = openWorld(t, dir, store)
				crep, _, _ := w.recoverAll(t)
				for _, needy := range crep.NeedsResolve {
					ni, ok := txns[needy]
					if !ok {
						t.Fatalf("journal resurrected unknown transaction %q", needy)
					}
					w.converge(t, needy, ni.key, ni.data)
				}
				for txn, ni := range txns {
					assertDisputeInvariant(t, w, txn, ni.key)
				}
			}
			var st transport.Stats
			for _, fc := range conns {
				s := fc.Stats()
				st.Sent += s.Sent
				st.Dropped += s.Dropped
				st.Duplicated += s.Duplicated
			}
			t.Logf("fault layer over %d rounds: %d sent, %d dropped, %d duplicated", rounds, st.Sent, st.Dropped, st.Duplicated)
		})
	}
}
