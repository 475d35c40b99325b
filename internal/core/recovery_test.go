package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// journaledWorld is a deployment whose three parties write crash
// journals, plus the handles needed to "restart" it: reopening the
// same WAL directories and blob store models a process coming back on
// the same disk.
type journaledWorld struct {
	d          *deploy.Deployment
	store      storage.Store
	cw, pw, tw *wal.WAL
}

func openJournaledWorld(t *testing.T, dir string, store storage.Store) *journaledWorld {
	t.Helper()
	open := func(sub string) *wal.WAL {
		w, err := wal.Open(filepath.Join(dir, sub), wal.Options{})
		if err != nil {
			t.Fatalf("opening %s journal: %v", sub, err)
		}
		return w
	}
	cw, pw, tw := open("client"), open("provider"), open("ttp")
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: 2 * time.Second,
		ProviderStore:   store,
		ClientOpts:      []core.Option{core.WithJournal(cw)},
		ProviderOpts:    []core.Option{core.WithJournal(pw)},
		TTPOpts:         []core.Option{core.WithJournal(tw)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &journaledWorld{d: d, store: store, cw: cw, pw: pw, tw: tw}
}

// crash tears the world down without any graceful protocol steps.
func (w *journaledWorld) crash() {
	w.d.Close()
	w.cw.Close()
	w.pw.Close()
	w.tw.Close()
}

func TestJournalRecoveryRebuildsCompletedUpload(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()
	data := []byte("journaled payload")

	w := openJournaledWorld(t, dir, store)
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.Client.Upload(ctx, conn, "txn-rec-1", "rec/obj", data); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	w.crash()

	// Restart on the same disk.
	w2 := openJournaledWorld(t, dir, store)
	defer w2.crash()
	crep, err := w2.d.Client.Recover(ctx)
	if err != nil {
		t.Fatalf("client recover: %v", err)
	}
	prep, err := w2.d.Provider.Recover(ctx)
	if err != nil {
		t.Fatalf("provider recover: %v", err)
	}
	if _, err := w2.d.TTPServer.Recover(ctx); err != nil {
		t.Fatalf("ttp recover: %v", err)
	}
	if crep.Records == 0 || prep.Records == 0 {
		t.Fatalf("no records replayed: client %d, provider %d", crep.Records, prep.Records)
	}
	if len(crep.NeedsResolve) != 0 || len(prep.NeedsResolve) != 0 {
		t.Fatalf("completed txn flagged for resolve: client %v, provider %v", crep.NeedsResolve, prep.NeedsResolve)
	}
	// All four evidence items survive the restart.
	if _, err := w2.d.Client.EvidenceByKind("txn-rec-1", evidence.RoleOwn, evidence.KindNRO); err != nil {
		t.Error("client lost its NRO across restart")
	}
	if _, err := w2.d.Client.EvidenceByKind("txn-rec-1", evidence.RolePeer, evidence.KindNRR); err != nil {
		t.Error("client lost the NRR across restart")
	}
	if _, err := w2.d.Provider.EvidenceByKind("txn-rec-1", evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Error("provider lost the NRO across restart")
	}
	if _, err := w2.d.Provider.EvidenceByKind("txn-rec-1", evidence.RoleOwn, evidence.KindNRR); err != nil {
		t.Error("provider lost its NRR across restart")
	}

	// The recovered archive still anchors the upload-to-download
	// integrity check: a download on the restarted world verifies the
	// served bytes against the replayed agreed digest.
	conn2, err := w2.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	res, err := w2.d.Client.Download(ctx, conn2, "txn-rec-dl", "rec/obj", "txn-rec-1")
	if err != nil {
		t.Fatalf("download after recovery: %v", err)
	}
	if !res.IntegrityOK || res.AgreedUpload == nil || !bytes.Equal(res.Data, data) {
		t.Fatal("recovered archive did not anchor the integrity check")
	}
}

func TestProviderRecoverHonorsAckedAbort(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openJournaledWorld(t, dir, store)
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.Client.Upload(ctx, conn, "txn-ab-1", "ab/obj", []byte("to be aborted")); err != nil {
		t.Fatal(err)
	}
	// Completed transactions reject aborts, so run the abort on a fresh
	// transaction the provider holds in EvidenceReceived: silence Bob
	// first so the upload stalls there.
	w.d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := w.d.Client.Upload(ctx, conn, "txn-ab-2", "ab/obj2", []byte("stalled")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("silent provider upload = %v, want ErrTimeout", err)
	}
	w.d.Provider.SetMisbehavior(core.Misbehavior{})
	ab, err := w.d.Client.Abort(ctx, conn, "txn-ab-2", "stalled upload")
	if err != nil || !ab.Accepted {
		t.Fatalf("abort = %+v, %v", ab, err)
	}
	conn.Close()
	w.crash()

	// Model the crash window between journaling the abort and dropping
	// the blob: the abort record is durable but the object is back on
	// disk when the provider restarts.
	if _, err := store.Put("ab/obj2", []byte("stalled"), cryptoutil.Sum(cryptoutil.MD5, []byte("stalled"))); err != nil {
		t.Fatal(err)
	}

	w2 := openJournaledWorld(t, dir, store)
	defer w2.crash()
	rep, err := w2.d.Provider.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HonoredAborts) != 1 || rep.HonoredAborts[0] != "txn-ab-2" {
		t.Fatalf("HonoredAborts = %v, want [txn-ab-2]", rep.HonoredAborts)
	}
	if _, err := store.Get("ab/obj2"); err == nil {
		t.Fatal("recovery left the aborted object in the store")
	}
	// The unaborted transaction's object survives.
	if _, err := store.Get("ab/obj"); err != nil {
		t.Fatalf("recovery touched an unrelated object: %v", err)
	}
}

func TestCorruptedUploadRejectedNotStored(t *testing.T) {
	d := newDeploy(t, 2*time.Second)
	raw, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	// Every client→provider message arrives with one flipped bit; the
	// provider must reject it outright rather than store anything.
	conn := transport.Faulty(raw, transport.FaultSpec{CorruptProb: 1.0, Seed: 3})

	_, err = d.Client.Upload(context.Background(), conn, "txn-corrupt-1", "corrupt/obj", []byte("bit-flipped in flight"))
	if err == nil {
		t.Fatal("upload over a corrupting link succeeded")
	}
	if conn.Stats().Corrupted == 0 {
		t.Fatal("fault layer reports no corruption")
	}
	if _, err := d.Store.Get("corrupt/obj"); err == nil {
		t.Fatal("provider stored an object from a corrupted message")
	}
	if _, err := d.Provider.EvidenceByKind("txn-corrupt-1", evidence.RolePeer, evidence.KindNRO); err == nil {
		t.Fatal("provider archived evidence from a corrupted message")
	}
	// The client's session is recoverable: its own NRO is archived, so
	// escalation to Resolve stays available.
	if _, err := d.Client.PendingNRO("txn-corrupt-1"); err != nil {
		t.Fatalf("client lost its pending NRO: %v", err)
	}
}

// TestRecoverOverZeroHole: a crash that kept a later unsynced journal
// write but lost the earlier one leaves zeros in front of an intact
// record. Recovery treats the hole as a torn tail — the later record
// was never acked, because its flush never completed — instead of
// failing on an "empty" record.
func TestRecoverOverZeroHole(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	ctx := context.Background()

	w := openJournaledWorld(t, dir, store)
	conn, err := w.d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.Client.Upload(ctx, conn, "txn-hole", "hole/obj", []byte("before the hole")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	w.crash()

	segs, err := filepath.Glob(filepath.Join(dir, "provider", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no provider segment (%v)", err)
	}
	payload := []byte("a later record the crash kept")
	hole := binary.BigEndian.AppendUint32(make([]byte, 40), uint32(len(payload)))
	hole = binary.BigEndian.AppendUint32(hole, crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(hole, payload...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := openJournaledWorld(t, dir, store)
	defer w2.crash()
	rep, err := w2.d.Provider.Recover(ctx)
	if err != nil {
		t.Fatalf("recover over a zero hole: %v", err)
	}
	if !rep.TornTail {
		t.Fatal("zero hole not reported as a torn tail")
	}
	if _, err := w2.d.Provider.EvidenceByKind("txn-hole", evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Fatalf("evidence before the hole lost: %v", err)
	}
}
