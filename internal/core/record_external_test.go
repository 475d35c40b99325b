package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/storage"
	"repro/internal/wal"
)

// forgedFrame is a frame anyone can build without a key: Alice's name
// in a plaintext header at sequence 2^40, a fresh nonce, a valid time
// limit, and 26 junk bytes where the seal belongs.
func forgedFrame(kind evidence.Kind, txn, recipient string) []byte {
	now := time.Now()
	h := &evidence.Header{
		Kind: kind, TxnID: txn, Seq: 1 << 40, Nonce: cryptoutil.MustNonce(),
		SenderID: deploy.ClientName, RecipientID: recipient, TTPID: deploy.TTPName,
		Timestamp: now, TimeLimit: now.Add(time.Minute),
	}
	return (&core.Message{HeaderBytes: h.Encode(), Sealed: bytes.Repeat([]byte{0x5a}, 26)}).Encode()
}

// TestForgedFrameLeavesNoFloor: a receiver remembers only what
// authenticated (paper §5.4). A forged frame whose seal does not open
// must not raise the sender's sequence floor, or Alice's genuine
// message for the same transaction is refused as out of order — at
// the provider her upload, at the TTP her resolve, her only recourse.
func TestForgedFrameLeavesNoFloor(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []cryptoutil.Scheme{cryptoutil.SchemeRSA, cryptoutil.SchemeEd25519} {
		newWorld := func(t *testing.T) *deploy.Deployment {
			d, err := deploy.New(deploy.Config{TestKeys: true, Scheme: scheme, ResponseTimeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			return d
		}
		t.Run(scheme.String()+"/provider-upload", func(t *testing.T) {
			d := newWorld(t)
			conn := mustDial(t, d)
			if err := conn.Send(forgedFrame(evidence.KindNRO, "t9", deploy.ProviderName)); err != nil {
				t.Fatal(err)
			}
			// The provider still answers with a signed error; waiting for it
			// orders the forgery before the upload.
			if _, err := conn.Recv(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Client.Upload(ctx, conn, "t9", "forged/obj", []byte("genuine")); err != nil {
				t.Fatalf("genuine upload after a forged frame: %v", err)
			}
		})
		t.Run(scheme.String()+"/ttp-resolve", func(t *testing.T) {
			d := newWorld(t)
			if _, err := d.Client.Upload(ctx, mustDial(t, d), "t9", "forged/obj", []byte("genuine")); err != nil {
				t.Fatal(err)
			}
			ttpConn, err := d.DialTTP()
			if err != nil {
				t.Fatal(err)
			}
			defer ttpConn.Close()
			// The TTP answers nothing it cannot authenticate, and serves one
			// connection's frames in order: the forgery is handled first.
			if err := ttpConn.Send(forgedFrame(evidence.KindResolveRequest, "t9", deploy.TTPName)); err != nil {
				t.Fatal(err)
			}
			res, err := d.Client.Resolve(ctx, ttpConn, "t9", "receipt disputed")
			if err != nil {
				t.Fatalf("genuine resolve after a forged frame: %v", err)
			}
			if res.Outcome != "continue" {
				t.Fatalf("resolve outcome %q, want continue", res.Outcome)
			}
		})
	}
}

// heapWorld is openCkptWorld with Ed25519 test keys and a disk store:
// a client and a provider whose journals checkpoint into cold archives.
func heapWorld(t *testing.T, dir string) (*deploy.Deployment, *archive.Store, *archive.Store) {
	t.Helper()
	var arcs []*archive.Store
	party := func(sub string) []core.Option {
		w, err := wal.Open(filepath.Join(dir, sub, "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := archive.Open(filepath.Join(dir, sub, "archive"))
		if err != nil {
			t.Fatal(err)
		}
		arcs = append(arcs, a)
		t.Cleanup(func() { w.Close(); a.Close() })
		return []core.Option{core.WithJournal(w), core.WithArchive(a)}
	}
	store, err := storage.NewDisk(filepath.Join(dir, "blobs"), time.Now)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(deploy.Config{
		TestKeys: true, Scheme: cryptoutil.SchemeEd25519, ResponseTimeout: 2 * time.Second,
		ProviderStore: store, ClientOpts: party("client"), ProviderOpts: party("provider"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, arcs[0], arcs[1]
}

// TestRetainedHeapPerArchivedTxn: once a checkpoint has compacted a
// transaction, the parties keep for it only what is kept by design —
// the cold archive's index entry and the nonce in the bounded window —
// not a record, floors, counters or an object binding. The gate is the
// heap slope between two run lengths, so constant costs cancel.
func TestRetainedHeapPerArchivedTxn(t *testing.T) {
	if testing.Short() {
		t.Skip("uploads a few hundred objects")
	}
	ctx := context.Background()
	d, ca, pa := heapWorld(t, t.TempDir())
	conn := mustDial(t, d)
	done := 0
	heapAfter := func(n int) uint64 {
		for ; done < n; done++ {
			txn := fmt.Sprintf("txn-heap-%06d", done)
			if _, err := d.Client.Upload(ctx, conn, txn, "heap/"+txn, []byte{byte(done)}); err != nil {
				t.Fatalf("upload %s: %v", txn, err)
			}
			if done%50 == 49 {
				if _, err := d.Client.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Provider.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n1, n2 = 600, 1200
	h1 := heapAfter(n1)
	h2 := heapAfter(n2)
	perTxn := (float64(h2) - float64(h1)) / (n2 - n1)
	t.Logf("retained heap: %d B after %d uploads, %d B after %d: %.0f B per archived transaction", h1, n1, h2, n2, perTxn)
	if perTxn > 700 {
		t.Errorf("%.0f B of heap retained per archived transaction, want <= 700", perTxn)
	}
	assertNoArchivedRecords(t, d.Client.HotTxns(), ca)
	assertNoArchivedRecords(t, d.Provider.HotTxns(), pa)
}

// assertNoArchivedRecords checks that a party holds no record for a
// transaction its cold archive knows.
func assertNoArchivedRecords(t *testing.T, hot []string, cold *archive.Store) {
	t.Helper()
	for _, txn := range hot {
		if cold.Has(txn) {
			t.Errorf("a record for %s outlived its compaction", txn)
		}
	}
}

// TestCheckpointDeletesArchivedRecords is the deterministic companion
// of the heap gate: after a checkpoint no party holds a record for an
// archived transaction, and a late message for one re-seeds its record
// from the bundle — terminal state, floors — until the next checkpoint
// deletes it again.
func TestCheckpointDeletesArchivedRecords(t *testing.T) {
	ctx := context.Background()
	w := openCkptWorld(t, t.TempDir(), storage.NewMem(time.Now))
	defer w.crash()
	for i := 0; i < 3; i++ {
		w.upload(t, ctx, fmt.Sprintf("txn-del-%d", i), fmt.Sprintf("del/obj-%d", i), []byte("payload"))
	}
	checkpoint := func() {
		t.Helper()
		for _, p := range []interface {
			Checkpoint() (*core.CheckpointReport, error)
		}{w.d.Client, w.d.Provider, w.d.TTPServer} {
			if _, err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		assertNoArchivedRecords(t, w.d.Client.HotTxns(), w.ca)
		assertNoArchivedRecords(t, w.d.Provider.HotTxns(), w.pa)
		assertNoArchivedRecords(t, w.d.TTPServer.HotTxns(), w.ta)
	}
	checkpoint()
	if hot := w.d.Provider.HotTxns(); len(hot) != 0 {
		t.Fatalf("provider records after compaction: %v", hot)
	}

	// A late abort of a completed, compacted upload reads the terminal
	// state from the bundle: rejected, and the object stays.
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := w.d.Client.Abort(ctx, conn, "txn-del-1", "too late")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("abort of a completed, compacted upload accepted")
	}
	if _, err := w.store.Get("del/obj-1"); err != nil {
		t.Fatalf("rejected abort dropped the object: %v", err)
	}
	checkpoint()
	if _, err := w.d.Provider.EvidenceByKind("txn-del-1", evidence.RolePeer, evidence.KindAbortRequest); err != nil {
		t.Fatalf("late abort request not merged into the bundle: %v", err)
	}
	if _, err := w.d.Provider.EvidenceByKind("txn-del-1", evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Fatalf("merge lost the original NRO: %v", err)
	}
}

// TestCompactionCrashBeforeSnapshotKeepsAbort: a crash after a
// checkpoint's compaction but before its snapshot lands leaves the
// previous snapshot, which still lists the transaction as live, over a
// bundle that holds its terminal state. Recovery must come back with
// the terminal state — here an abort of a withheld-receipt upload —
// so a later resolve relays the abort instead of issuing a receipt for
// a deleted object, and the next checkpoint compacts the transaction
// again without duplicating its archived evidence. With the journal
// tail intact the tail carries the abort; with it lost (what a batch
// journal may lose in a crash) the bundle alone does.
func TestCompactionCrashBeforeSnapshotKeepsAbort(t *testing.T) {
	for _, loseTail := range []bool{false, true} {
		t.Run(fmt.Sprintf("tail-lost=%v", loseTail), func(t *testing.T) {
			testCompactionCrashBeforeSnapshot(t, loseTail)
		})
	}
}

func testCompactionCrashBeforeSnapshot(t *testing.T, loseTail bool) {
	const txn, key = "txn-held", "held/obj"
	ctx := context.Background()
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	w := openCkptWorld(t, dir, store)

	// The provider stores the upload and withholds the receipt.
	w.d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	upCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	_, err = w.d.Client.Upload(upCtx, conn, txn, key, []byte("withheld"))
	cancel()
	if err == nil {
		t.Fatal("upload to a silent provider returned a receipt")
	}
	w.d.Provider.SetMisbehavior(core.Misbehavior{})
	if _, err := w.d.Provider.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Fatalf("provider never filed the NRO: %v", err)
	}
	// Snapshot one: the upload is live. The journal's tail starts here.
	if _, err := w.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "provider", "wal", "wal-*.seg"))
	tailSeg := segs[len(segs)-1]
	fi, err := os.Stat(tailSeg)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := w.d.Client.Abort(ctx, conn, txn, "no receipt")
	conn.Close()
	if err != nil || !ab.Accepted {
		t.Fatalf("abort = %+v, %v", ab, err)
	}
	// Checkpoint two compacts the aborted upload, then dies before its
	// snapshot: the closed journal refuses it.
	w.pw.Close()
	if _, err := w.d.Provider.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a closed journal succeeded")
	}
	if !w.pa.Has(txn) {
		t.Fatal("the failed checkpoint did not compact the aborted upload")
	}
	w.crash()
	if loseTail {
		if err := os.Truncate(tailSeg, fi.Size()); err != nil {
			t.Fatal(err)
		}
	}

	w2 := openCkptWorld(t, dir, store)
	defer w2.crash()
	if _, err := w2.d.Provider.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.d.TTPServer.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.d.Client.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := w2.pa.Get(txn)
	if err != nil {
		t.Fatal(err)
	}
	ttpConn, err := w2.d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := w2.d.Client.Resolve(ctx, ttpConn, txn, "no receipt")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "aborted" {
		t.Fatalf("resolve outcome %q, want aborted", res.Outcome)
	}
	if _, err := w2.d.Provider.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR); err == nil {
		t.Fatal("the provider issued a receipt for an aborted upload")
	}

	if _, err := w2.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertNoArchivedRecords(t, w2.d.Provider.HotTxns(), w2.pa)
	after, err := w2.pa.Get(txn)
	if err != nil {
		t.Fatal(err)
	}
	// The resolve brought its query and the answer; nothing else is new.
	if got, want := len(after.Items), len(before.Items)+2; got != want {
		t.Fatalf("bundle holds %d items after the resolve, want %d", got, want)
	}
}

// TestCompactionCrashBeforeSnapshotClosesResolve is the TTP's side of
// the same crash: a resolve open at the previous snapshot, closed and
// compacted since. The journal tail holds the close, so recovery must
// not report the resolve open, and the next checkpoint must compact it.
func TestCompactionCrashBeforeSnapshotClosesResolve(t *testing.T) {
	const txn = "txn-res"
	ctx := context.Background()
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	w := openCkptWorld(t, dir, store)
	w.upload(t, ctx, txn, "res/obj", []byte("payload"))

	// The provider ignores the TTP, which holds the resolve open until
	// its timeout and then closes it with a statement.
	w.d.Provider.SetMisbehavior(core.Misbehavior{IgnoreResolve: true})
	ttpConn, err := w.d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	done := make(chan error, 1)
	go func() {
		_, err := w.d.Client.Resolve(ctx, ttpConn, txn, "receipt disputed")
		done <- err
	}()
	for len(w.d.TTPServer.HotEvidence(txn, evidence.RolePeer)) == 0 {
		time.Sleep(time.Millisecond)
	}
	// Snapshot one: the resolve is open.
	if _, err := w.d.TTPServer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Checkpoint two compacts the closed resolve, then dies before its
	// snapshot.
	w.tw.Close()
	if _, err := w.d.TTPServer.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a closed journal succeeded")
	}
	if !w.ta.Has(txn) {
		t.Fatal("the failed checkpoint did not compact the closed resolve")
	}
	w.crash()

	w2 := openCkptWorld(t, dir, store)
	defer w2.crash()
	rep, err := w2.d.TTPServer.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OpenResolves) != 0 {
		t.Fatalf("OpenResolves = %v after the resolve closed", rep.OpenResolves)
	}
	if _, err := w2.d.TTPServer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertNoArchivedRecords(t, w2.d.TTPServer.HotTxns(), w2.ta)
}

// TestLateResolveAfterCompactionSurvivesCrash: a resolve answered for a
// compacted upload is journaled into the tail; a crash before the next
// checkpoint must not lose the answer the provider sent, although the
// cold archive holds an older bundle for the transaction.
func TestLateResolveAfterCompactionSurvivesCrash(t *testing.T) {
	const txn = "txn-late"
	ctx := context.Background()
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	w := openCkptWorld(t, dir, store)
	w.upload(t, ctx, txn, "late/obj", []byte("payload"))
	if _, err := w.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !w.pa.Has(txn) {
		t.Fatal("the checkpoint did not compact the upload")
	}
	ttpConn, err := w.d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.d.Client.Resolve(ctx, ttpConn, txn, "receipt disputed")
	ttpConn.Close()
	if err != nil || res.Outcome != "continue" {
		t.Fatalf("late resolve = %+v, %v", res, err)
	}
	w.crash()

	w2 := openCkptWorld(t, dir, store)
	defer w2.crash()
	if _, err := w2.d.Provider.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.d.Provider.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindResolveResponse); err != nil {
		t.Fatalf("the provider lost the resolve answer it sent: %v", err)
	}
	if _, err := w2.d.Provider.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Fatalf("the provider lost the archived NRO: %v", err)
	}
	if _, err := w2.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertNoArchivedRecords(t, w2.d.Provider.HotTxns(), w2.pa)
	if _, err := w2.d.Provider.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindResolveResponse); err != nil {
		t.Fatalf("the next checkpoint did not archive the resolve answer: %v", err)
	}
}
