package core_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ckptWorld is a journaled deployment whose three parties also carry
// cold evidence archives, plus the handles to "restart" it on the same
// disk.
type ckptWorld struct {
	d          *deploy.Deployment
	store      storage.Store
	cw, pw, tw *wal.WAL
	ca, pa, ta *archive.Store
}

func openCkptWorld(t *testing.T, dir string, store storage.Store) *ckptWorld {
	t.Helper()
	openWAL := func(sub string) *wal.WAL {
		w, err := wal.Open(filepath.Join(dir, sub, "wal"), wal.Options{})
		if err != nil {
			t.Fatalf("opening %s journal: %v", sub, err)
		}
		return w
	}
	openArc := func(sub string) *archive.Store {
		s, err := archive.Open(filepath.Join(dir, sub, "archive"))
		if err != nil {
			t.Fatalf("opening %s archive: %v", sub, err)
		}
		return s
	}
	cw, pw, tw := openWAL("client"), openWAL("provider"), openWAL("ttp")
	ca, pa, ta := openArc("client"), openArc("provider"), openArc("ttp")
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: 2 * time.Second,
		ProviderStore:   store,
		ClientOpts:      []core.Option{core.WithJournal(cw), core.WithArchive(ca)},
		ProviderOpts:    []core.Option{core.WithJournal(pw), core.WithArchive(pa)},
		TTPOpts:         []core.Option{core.WithJournal(tw), core.WithArchive(ta)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ckptWorld{d: d, store: store, cw: cw, pw: pw, tw: tw, ca: ca, pa: pa, ta: ta}
}

func (w *ckptWorld) crash() {
	w.d.Close()
	w.cw.Close()
	w.pw.Close()
	w.tw.Close()
	w.ca.Close()
	w.pa.Close()
	w.ta.Close()
}

func (w *ckptWorld) upload(t *testing.T, ctx context.Context, txn, key string, data []byte) {
	t.Helper()
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := w.d.Client.Upload(ctx, conn, txn, key, data); err != nil {
		t.Fatalf("upload %s: %v", txn, err)
	}
}

func TestCheckpointCompactsAndRecoversSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openCkptWorld(t, dir, store)
	for i := 0; i < 3; i++ {
		w.upload(t, ctx, fmt.Sprintf("txn-ck-%d", i), fmt.Sprintf("ck/obj-%d", i), []byte("payload"))
	}
	crep, err := w.d.Client.Checkpoint()
	if err != nil {
		t.Fatalf("client checkpoint: %v", err)
	}
	prep, err := w.d.Provider.Checkpoint()
	if err != nil {
		t.Fatalf("provider checkpoint: %v", err)
	}
	if _, err := w.d.TTPServer.Checkpoint(); err != nil {
		t.Fatalf("ttp checkpoint: %v", err)
	}
	if crep.Archived != 3 || prep.Archived != 3 {
		t.Fatalf("archived: client %d, provider %d, want 3 each", crep.Archived, prep.Archived)
	}
	if crep.LSN == 0 {
		t.Fatal("checkpoint reported LSN 0")
	}
	// Compacted sessions left the hot store but remain cold-readable.
	if len(w.d.Client.HotTxns()) != 0 {
		t.Fatalf("hot evidence survived compaction: %v", w.d.Client.HotTxns())
	}
	if !w.pa.Has("txn-ck-0") {
		t.Fatal("provider cold archive missing compacted session")
	}
	if _, err := w.d.Provider.EvidenceByKind("txn-ck-1", evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Fatalf("cold read-through failed: %v", err)
	}

	// One more session lands past the checkpoint: it is the tail.
	w.upload(t, ctx, "txn-ck-tail", "ck/tail", []byte("tail payload"))
	w.crash()

	w2 := openCkptWorld(t, dir, store)
	defer w2.crash()
	rep, err := w2.d.Provider.Recover(ctx)
	if err != nil {
		t.Fatalf("provider recover: %v", err)
	}
	if rep.SnapshotLSN == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if rep.ArchivedSessions != 3 {
		t.Fatalf("ArchivedSessions = %d, want 3", rep.ArchivedSessions)
	}
	// Only the tail session's records were replayed; the three archived
	// sessions cost nothing.
	if rep.TailRecords == 0 || rep.TailRecords > 8 {
		t.Fatalf("TailRecords = %d, want a handful (tail session only)", rep.TailRecords)
	}
	if len(rep.Transactions) != 1 || rep.Transactions[0] != "txn-ck-tail" {
		t.Fatalf("replayed transactions = %v, want [txn-ck-tail]", rep.Transactions)
	}
	if len(rep.NeedsResolve) != 0 {
		t.Fatalf("NeedsResolve = %v, want none", rep.NeedsResolve)
	}
	if _, err := w2.d.Client.Recover(ctx); err != nil {
		t.Fatalf("client recover: %v", err)
	}
	if _, err := w2.d.TTPServer.Recover(ctx); err != nil {
		t.Fatalf("ttp recover: %v", err)
	}

	// The compacted upload still anchors the integrity check on a fresh
	// download — the agreed receipt is found in the cold tier.
	conn, err := w2.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := w2.d.Client.Download(ctx, conn, "txn-ck-dl", "ck/obj-0", "txn-ck-0")
	if err != nil {
		t.Fatalf("download after compaction: %v", err)
	}
	if !res.IntegrityOK || res.AgreedUpload == nil || !bytes.Equal(res.Data, []byte("payload")) {
		t.Fatal("cold archive did not anchor the integrity check")
	}
}

// TestRecoverTwiceIsIdempotent asserts the regression the issue calls
// out: running Recover twice on the same journal must yield the state
// of running it once — no duplicated evidence, no changed reports.
func TestRecoverTwiceIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openCkptWorld(t, dir, store)
	w.upload(t, ctx, "txn-idem-0", "idem/obj-0", []byte("zero"))
	w.upload(t, ctx, "txn-idem-1", "idem/obj-1", []byte("one"))
	if _, err := w.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.upload(t, ctx, "txn-idem-2", "idem/obj-2", []byte("two"))
	w.crash()

	w2 := openCkptWorld(t, dir, store)
	defer w2.crash()
	rep1, err := w2.d.Provider.Recover(ctx)
	if err != nil {
		t.Fatalf("first recover: %v", err)
	}
	snap1 := providerStateFingerprint(w2.d.Provider)
	rep2, err := w2.d.Provider.Recover(ctx)
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	snap2 := providerStateFingerprint(w2.d.Provider)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("recovery reports differ:\n  first:  %+v\n  second: %+v", rep1, rep2)
	}
	if !reflect.DeepEqual(snap1, snap2) {
		t.Fatalf("recovering twice changed state:\n  first:  %v\n  second: %v", snap1, snap2)
	}
}

// providerStateFingerprint captures the externally observable recovery
// state: per-transaction evidence counts by role.
func providerStateFingerprint(p *core.Provider) map[string][2]int {
	out := make(map[string][2]int)
	for _, txn := range p.HotTxns() {
		out[txn] = [2]int{
			len(p.HotEvidence(txn, evidence.RoleOwn)),
			len(p.HotEvidence(txn, evidence.RolePeer)),
		}
	}
	return out
}

// TestResolveAfterCompaction drives a §4.3 resolve against a session
// the provider has already compacted into its cold archive: the
// provider must re-present its NRR from the cold tier, and the client
// must receive it relayed through the TTP.
func TestResolveAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openCkptWorld(t, dir, store)
	defer w.crash()
	w.upload(t, ctx, "txn-cold-res", "cold/obj", []byte("disputed payload"))
	prep, err := w.d.Provider.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if prep.Archived != 1 {
		t.Fatalf("provider archived %d sessions, want 1", prep.Archived)
	}
	if list := w.d.Provider.HotTxns(); len(list) != 0 {
		t.Fatalf("session still hot after compaction: %v", list)
	}

	ttpConn, err := w.d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := w.d.Client.Resolve(ctx, ttpConn, "txn-cold-res", "claims receipt lost")
	if err != nil {
		t.Fatalf("resolve against compacted session: %v", err)
	}
	if res.Outcome != "continue" {
		t.Fatalf("outcome = %q, want continue (provider holds the NRR cold)", res.Outcome)
	}
	if res.PeerEvidence == nil || res.PeerEvidence.Header.Kind != evidence.KindNRR {
		t.Fatalf("relayed evidence = %+v, want the provider's NRR", res.PeerEvidence)
	}
}

// TestCheckpointMergesLateEvidence covers re-compaction: evidence that
// arrives for an already-archived session (the resolve traffic above)
// lands hot again; the next checkpoint must MERGE it into the cold
// bundle rather than overwrite the original NRO/NRR away.
func TestCheckpointMergesLateEvidence(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openCkptWorld(t, dir, store)
	defer w.crash()
	w.upload(t, ctx, "txn-merge", "merge/obj", []byte("payload"))
	if _, err := w.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A resolve adds fresh hot evidence for the compacted session.
	ttpConn, err := w.d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	if _, err := w.d.Client.Resolve(ctx, ttpConn, "txn-merge", "late dispute"); err != nil {
		t.Fatal(err)
	}
	if len(w.d.Provider.HotEvidence("txn-merge", evidence.RolePeer)) == 0 {
		t.Fatal("resolve left no hot evidence; test premise broken")
	}
	if _, err := w.d.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The re-compacted bundle still holds the ORIGINAL upload evidence.
	if _, err := w.d.Provider.EvidenceByKind("txn-merge", evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Fatalf("re-compaction destroyed the original NRO: %v", err)
	}
	if _, err := w.d.Provider.EvidenceByKind("txn-merge", evidence.RoleOwn, evidence.KindNRR); err != nil {
		t.Fatalf("re-compaction destroyed the original NRR: %v", err)
	}
	// And the late resolve-query evidence made it cold too.
	if _, err := w.d.Provider.EvidenceByKind("txn-merge", evidence.RolePeer, evidence.KindResolveRequest); err != nil {
		t.Fatalf("late evidence missing from merged bundle: %v", err)
	}
}

// TestTTPKeepsOpenResolveHot asserts the TTP's compaction rule: a
// session whose resolve procedure is open survives checkpointing hot
// (the claimant's retry needs it), and the open resolve is still
// reported after a crash+recover of the checkpointed journal.
func TestTTPKeepsOpenResolveHot(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openCkptWorld(t, dir, store)
	w.upload(t, ctx, "txn-open", "open/obj", []byte("payload"))
	// Wedge the provider so the TTP's resolve stays open: the provider
	// ignores the TTP's query and the TTP times out into a statement.
	w.d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true, IgnoreResolve: true})

	ttpConn, err := w.d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.Client.Resolve(ctx, ttpConn, "txn-open", "provider silent"); err != nil {
		t.Logf("resolve returned %v (statement path)", err)
	}
	ttpConn.Close()
	if _, err := w.d.TTPServer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.crash()

	w2 := openCkptWorld(t, dir, store)
	defer w2.crash()
	rep, err := w2.d.TTPServer.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Whether the resolve closed (statement issued) or stayed open, the
	// recovered ledger must agree with the pre-crash one — and if it was
	// open, the session's evidence must still be hot.
	for _, txn := range rep.OpenResolves {
		if len(w2.d.TTPServer.HotEvidence(txn, evidence.RolePeer)) == 0 &&
			len(w2.d.TTPServer.HotEvidence(txn, evidence.RoleOwn)) == 0 {
			t.Fatalf("open resolve %s was compacted away", txn)
		}
	}
}
