package deploy_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/leakcheck"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wal"
)

// replWorld is a single-shard deployment whose provider journal is
// replicated to two followers (R=3, quorum 2) under dir, restartable
// on the same disk.
type replWorld struct {
	d  *deploy.Deployment
	pw *wal.WAL
}

func leaderDir(dir string) string { return filepath.Join(dir, "provider", "wal") }
func followerDir(dir string, r int) string {
	return filepath.Join(dir, "provider", shard.DirName(0), fmt.Sprintf("replica-%02d", r))
}

func openReplWorld(t *testing.T, dir string, store storage.Store) *replWorld {
	t.Helper()
	pw, err := wal.Open(leaderDir(dir), wal.Options{})
	if err != nil {
		t.Fatalf("opening leader journal: %v", err)
	}
	d, err := deploy.New(deploy.Config{
		TestKeys:         true,
		ResponseTimeout:  2 * time.Second,
		ProviderStore:    store,
		ProviderOpts:     []core.Option{core.WithJournal(pw)},
		ProviderReplicas: 3,
		ReplicaWAL: func(s, r int) (*wal.WAL, error) {
			return wal.Open(followerDir(dir, r), wal.Options{})
		},
		ReplicaAckTimeout:     time.Second,
		ReplicaRepairInterval: 25 * time.Millisecond,
	})
	if err != nil {
		pw.Close()
		t.Fatalf("deploy.New: %v", err)
	}
	return &replWorld{d: d, pw: pw}
}

func (w *replWorld) crash() {
	w.d.Close() // also closes the follower journals the deployment opened
	w.pw.Close()
}

func (w *replWorld) upload(t *testing.T, ctx context.Context, txn, key string) {
	t.Helper()
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := w.d.Client.Upload(ctx, conn, txn, key, []byte("payload-"+txn)); err != nil {
		t.Fatalf("upload %s: %v", txn, err)
	}
}

func waitConverged(t *testing.T, d *deploy.Deployment) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, g := range d.ReplicaGroups {
			if !g.Converged() {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replication groups did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recoverOverJournal starts a fresh unreplicated deployment whose
// provider journal is the WAL at walDir — "restore the shard from this
// surviving replica's disk" — and runs provider recovery.
func recoverOverJournal(t *testing.T, ctx context.Context, walDir string, store storage.Store) (
	*deploy.Deployment, *core.RecoveryReport, func()) {
	t.Helper()
	w, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopening journal %s: %v", walDir, err)
	}
	d, err := deploy.New(deploy.Config{
		TestKeys:      true,
		ProviderStore: store,
		ProviderOpts:  []core.Option{core.WithJournal(w)},
	})
	if err != nil {
		w.Close()
		t.Fatalf("deploy.New over %s: %v", walDir, err)
	}
	rep, err := d.Provider.Recover(ctx)
	if err != nil {
		d.Close()
		w.Close()
		t.Fatalf("recover over %s: %v", walDir, err)
	}
	return d, rep, func() { d.Close(); w.Close() }
}

// TestReplicatedUploadRecoversFromFollower is the headline durability
// claim: acked uploads replicate to the write quorum before the NRR is
// signed, so after the leader node is lost entirely, a provider
// rebuilt from a follower's journal alone still holds both halves of
// the evidence pair for every acked transaction.
func TestReplicatedUploadRecoversFromFollower(t *testing.T) {
	leakcheck.At(t)
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openReplWorld(t, dir, store)
	txns := []string{"txn-r-0", "txn-r-1", "txn-r-2"}
	for i, txn := range txns {
		w.upload(t, ctx, txn, fmt.Sprintf("repl/obj-%d", i))
	}
	waitConverged(t, w.d)
	w.crash()

	// The leader's disk is gone; follower 1's journal is all that's
	// left. Every acked receipt must be there.
	d2, rep, closeAll := recoverOverJournal(t, ctx, followerDir(dir, 1), store)
	defer closeAll()
	if len(rep.Transactions) != len(txns) {
		t.Fatalf("follower recovery replayed %v, want all of %v", rep.Transactions, txns)
	}
	for _, txn := range txns {
		if _, err := d2.Provider.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err != nil {
			t.Fatalf("follower recovery lost NRO for %s: %v", txn, err)
		}
		if _, err := d2.Provider.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR); err != nil {
			t.Fatalf("follower recovery lost NRR for %s: %v", txn, err)
		}
	}
}

// TestFollowerRecoverTwiceEqualsOnce pins the restart-convergence
// property on the replicated layout: a follower's journal keeps the
// full record history even after the leader checkpointed and
// truncated its own, and recovering over that longer tail twice
// reaches exactly the state of recovering once.
func TestFollowerRecoverTwiceEqualsOnce(t *testing.T) {
	leakcheck.At(t)
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openReplWorld(t, dir, store)
	w.upload(t, ctx, "txn-f-0", "f/obj-0")
	w.upload(t, ctx, "txn-f-1", "f/obj-1")
	waitConverged(t, w.d)
	// The leader compacts: its journal becomes snapshot + empty tail,
	// while the followers keep the full record history — their tail now
	// extends past (is "ahead of") the leader's snapshot boundary.
	if _, err := w.d.Provider.Checkpoint(); err != nil {
		t.Fatalf("provider checkpoint: %v", err)
	}
	w.upload(t, ctx, "txn-f-tail", "f/tail")
	waitConverged(t, w.d)
	w.crash()

	fdir := followerDir(dir, 2)
	d1, rep1, close1 := recoverOverJournal(t, ctx, fdir, store)
	txns1 := append([]string(nil), rep1.Transactions...)
	evCount1 := len(d1.Provider.HotTxns())
	close1()

	d2, rep2, close2 := recoverOverJournal(t, ctx, fdir, store)
	defer close2()
	if !reflect.DeepEqual(txns1, rep2.Transactions) {
		t.Fatalf("recover-twice diverged: first %v, second %v", txns1, rep2.Transactions)
	}
	if got := len(d2.Provider.HotTxns()); got != evCount1 {
		t.Fatalf("recover-twice archive size %d, first pass %d", got, evCount1)
	}
	for _, txn := range []string{"txn-f-0", "txn-f-1", "txn-f-tail"} {
		if _, err := d2.Provider.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR); err != nil {
			t.Fatalf("second recovery lost NRR for %s: %v", txn, err)
		}
	}
	if rep1.SnapshotLSN != 0 || rep2.SnapshotLSN != 0 {
		t.Fatalf("follower recovery used a snapshot (%d/%d); its full tail should cover everything",
			rep1.SnapshotLSN, rep2.SnapshotLSN)
	}
}

// TestReplicatedShardedDeploy wires replication under a sharded engine
// (one group per shard) and checks the per-shard groups converge
// independently.
func TestReplicatedShardedDeploy(t *testing.T) {
	leakcheck.At(t)
	dir := t.TempDir()
	ctx := context.Background()
	const shards = 2

	wals := make([]*wal.WAL, shards)
	for i := range wals {
		w, err := wal.Open(filepath.Join(dir, shard.DirName(i), "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wals[i] = w
	}
	d, err := deploy.New(deploy.Config{
		TestKeys:       true,
		ProviderShards: shards,
		ProviderShardOpts: func(s int) []core.Option {
			return []core.Option{core.WithJournal(wals[s])}
		},
		ProviderReplicas: 3,
		ReplicaWAL: func(s, r int) (*wal.WAL, error) {
			return wal.Open(filepath.Join(dir, shard.DirName(s), fmt.Sprintf("replica-%02d", r)), wal.Options{})
		},
		ReplicaRepairInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("sharded replicated deploy: %v", err)
	}
	defer d.Close()
	if len(d.ReplicaGroups) != shards {
		t.Fatalf("got %d replication groups, want one per shard", len(d.ReplicaGroups))
	}

	pool := d.NewPool()
	defer pool.Close()
	for i := 0; i < 6; i++ {
		txn := fmt.Sprintf("txn-s-%d", i)
		if _, err := pool.Upload(ctx, txn, "s/"+txn, []byte("payload")); err != nil {
			t.Fatalf("pooled upload %s: %v", txn, err)
		}
	}
	waitConverged(t, d)
	for i, g := range d.ReplicaGroups {
		if err := g.Quorum(); err != nil {
			t.Fatalf("shard %d degraded on healthy cluster: %v", i, err)
		}
	}
}
