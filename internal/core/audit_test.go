package core_test

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/transport"
)

// TestAuditSurvivesProcessRestart reproduces the nrclient CLI shape:
// the process that audits is not the process that uploaded. A fresh
// client restarts its per-transaction sequence counter at zero while
// the provider's replay guard remembers the numbers the upload burned,
// so AuditObject must re-derive its sequence floor from the archived
// evidence instead of trusting the in-memory counter. Two deployments
// built with TestKeys share the process-wide cached identity keys, so
// the second deployment's client IS alice restarted — only its archive
// seeding differs from the first.
func TestAuditSurvivesProcessRestart(t *testing.T) {
	ctx := context.Background()
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)

	data := bytes.Repeat([]byte("dwell-audited bytes "), 1024)
	const txn = "txn-audit-restart"
	res, err := d.Client.Upload(ctx, conn, txn, "docs/audited", data)
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: a restarted client holding only the reloaded NRR — the
	// minimum the CLI audit path seeds before calling AuditObject.
	fresh := newDeploy(t, 5*time.Second)
	fresh.Client.ImportEvidence(txn, evidence.RolePeer, res.NRR)
	conn1 := mustDial(t, d)
	if _, err := fresh.Client.AuditObject(ctx, conn1, txn, 4); err != nil {
		t.Fatalf("fresh-process audit rejected: %v", err)
	}
	ch1, err := fresh.Client.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindAuditChallenge)
	if err != nil {
		t.Fatal(err)
	}
	if ch1.Header.Seq <= res.NRR.Header.Seq {
		t.Errorf("challenge seq %d does not exceed the upload's last seq %d",
			ch1.Header.Seq, res.NRR.Header.Seq)
	}

	// Round 2: yet another restart, now reloading the NRR plus the first
	// round's challenge and response — the floor must keep advancing
	// past the previous audit, not just past the upload.
	resp1, err := fresh.Client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindAuditResponse)
	if err != nil {
		t.Fatal(err)
	}
	again := newDeploy(t, 5*time.Second)
	again.Client.ImportEvidence(txn, evidence.RolePeer, res.NRR)
	again.Client.ImportEvidence(txn, evidence.RoleOwn, ch1)
	again.Client.ImportEvidence(txn, evidence.RolePeer, resp1)
	conn2 := mustDial(t, d)
	if _, err := again.Client.AuditObject(ctx, conn2, txn, 4); err != nil {
		t.Fatalf("second restarted audit rejected: %v", err)
	}

	// Note the single-writer assumption this encodes: each restart must
	// reload ALL prior evidence for the transaction (the CLI's state
	// directory does), because the provider's replay guard is keyed by
	// sender identity — two live processes sharing alice's keys without
	// sharing her archive cannot both stay ahead of it.
}

// wireCounter counts the bytes a connection carries both ways.
type wireCounter struct {
	transport.Conn
	n atomic.Int64
}

func (c *wireCounter) Send(msg []byte) error {
	c.n.Add(int64(len(msg)))
	return c.Conn.Send(msg)
}

func (c *wireCounter) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	c.n.Add(int64(len(msg)))
	return msg, err
}

// TestAuditWireBytesVsDownload pins what the storage-dwell audit is
// for: proving possession of a 1 MiB object with 4 challenged leaves
// moves those chunks and their proofs, not the object. The audit's
// bytes on the wire, both ways, must stay under an eighth of a
// download's.
func TestAuditWireBytesVsDownload(t *testing.T) {
	ctx := context.Background()
	d := newDeploy(t, 5*time.Second)
	conn := &wireCounter{Conn: mustDial(t, d)}
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := d.Client.Upload(ctx, conn, "txn-wire-up", "docs/wire", data); err != nil {
		t.Fatal(err)
	}
	measure := func(op func() error) int64 {
		t.Helper()
		before := conn.n.Load()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return conn.n.Load() - before
	}
	download := measure(func() error {
		_, err := d.Client.Download(ctx, conn, "txn-wire-down", "docs/wire", "txn-wire-up")
		return err
	})
	audit := measure(func() error {
		_, err := d.Client.AuditObject(ctx, conn, "txn-wire-up", 4)
		return err
	})
	t.Logf("download %d bytes, 4-leaf audit %d bytes", download, audit)
	if audit*8 >= download {
		t.Fatalf("a 4-leaf audit moved %d bytes, a download %d: want under an eighth", audit, download)
	}
}

// TestPoolConcurrentCloseWithAuditLoop pins the stop-channel teardown:
// two Close calls racing must not both observe the live audit-loop
// channel and double-close it (a panic under the old unguarded reads).
// Run with -race.
func TestPoolConcurrentCloseWithAuditLoop(t *testing.T) {
	d := newDeploy(t, 2*time.Second)
	for i := 0; i < 50; i++ {
		p := d.NewPool(core.PoolAuditInterval(time.Millisecond))
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Close()
			}()
		}
		wg.Wait()
	}
}
