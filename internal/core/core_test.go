package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/auditlog"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// newDeploy builds a fast test deployment with cached keys.
func newDeploy(t testing.TB, timeout time.Duration) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func mustDial(t testing.TB, d *deploy.Deployment) transport.Conn {
	t.Helper()
	conn, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestUploadNormalMode(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	data := []byte("company financial data, Q3")

	res, err := d.Client.Upload(context.Background(), conn, "txn-up-1", "finance/q3.xls", data)
	if err != nil {
		t.Fatal(err)
	}
	if res.NRO == nil || res.NRR == nil {
		t.Fatal("upload result missing evidence")
	}
	// Both commitments cover the same digests — the agreed value.
	if !res.NRO.Header.DataMD5.Equal(res.NRR.Header.DataMD5) {
		t.Error("NRO and NRR disagree on MD5")
	}
	// The provider stored the exact bytes.
	obj, err := d.Store.Get("finance/q3.xls")
	if err != nil || !bytes.Equal(obj.Data, data) {
		t.Fatalf("stored object: %v", err)
	}
	// Both sides archived both roles of evidence.
	if _, err := d.Client.Archive().ByKind("txn-up-1", evidence.RoleOwn, evidence.KindNRO); err != nil {
		t.Error("client lost its NRO")
	}
	if _, err := d.Client.Archive().ByKind("txn-up-1", evidence.RolePeer, evidence.KindNRR); err != nil {
		t.Error("client did not archive the NRR")
	}
	if _, err := d.Provider.Archive().ByKind("txn-up-1", evidence.RolePeer, evidence.KindNRO); err != nil {
		t.Error("provider did not archive the NRO")
	}
	if _, err := d.Provider.Archive().ByKind("txn-up-1", evidence.RoleOwn, evidence.KindNRR); err != nil {
		t.Error("provider lost its NRR")
	}
}

// TestTwoStepClaim verifies the §4.4 headline: the Normal mode takes
// exactly two protocol messages and zero TTP messages.
func TestTwoStepClaim(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn, "txn-steps", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := d.ClientCounters.Get(metrics.MsgsSent); got != 1 {
		t.Errorf("client sent %d messages, want 1", got)
	}
	if got := d.ClientCounters.Get(metrics.MsgsRecv); got != 1 {
		t.Errorf("client received %d messages, want 1", got)
	}
	if got := d.ProviderCounters.Get(metrics.MsgsSent); got != 1 {
		t.Errorf("provider sent %d messages, want 1", got)
	}
	if got := d.ClientCounters.Get(metrics.TTPMsgs) + d.ProviderCounters.Get(metrics.TTPMsgs) + d.TTPCounters.Get(metrics.MsgsRecv); got != 0 {
		t.Errorf("TTP was involved in a Normal-mode run: %d messages", got)
	}
}

func TestUploadDownloadIntegrityLink(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	data := []byte("the agreed content")
	if _, err := d.Client.Upload(context.Background(), conn, "txn-u", "docs/a", data); err != nil {
		t.Fatal(err)
	}
	res, err := d.Client.Download(context.Background(), conn, "txn-d", "docs/a", "txn-u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("downloaded bytes differ")
	}
	if !res.IntegrityOK || res.AgreedUpload == nil {
		t.Fatal("upload-to-download link not verified")
	}
}

// TestDownloadDetectsInStorageTamper is the repository's headline test:
// the provider tampers in storage and fixes the platform metadata (the
// move that defeats Azure/AWS/GAE checks in E5) — and the TPNR client
// still detects it, because the agreed digest is signed by both sides.
func TestDownloadDetectsInStorageTamper(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn, "txn-u", "ledger", []byte("total = 1000")); err != nil {
		t.Fatal(err)
	}
	tam := d.Store.(storage.Tamperer)
	if err := tam.Tamper("ledger", true, func(b []byte) []byte {
		return bytes.Replace(b, []byte("1000"), []byte("9999"), 1)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := d.Client.Download(context.Background(), conn, "txn-d", "ledger", "txn-u")
	if !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
	// The client still holds the provider's signature over the
	// tampered bytes — exactly the evidence a dispute needs.
	if res == nil || res.Receipt == nil || res.IntegrityOK {
		t.Fatal("failed download must still carry the provider receipt")
	}
}

// TestProviderTamperOnDownload covers the serving-side variant: the
// provider serves modified bytes (signing them, as it must for the
// message to pass checkInbound) and the agreed-digest comparison
// catches it.
func TestProviderTamperOnDownload(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn, "txn-u", "k", []byte("honest bytes")); err != nil {
		t.Fatal(err)
	}
	d.Provider.SetMisbehavior(core.Misbehavior{TamperOnDownload: func(b []byte) []byte {
		return append(b, []byte(" [altered]")...)
	}})
	if _, err := d.Client.Download(context.Background(), conn, "txn-d", "k", "txn-u"); !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
}

func TestUploadTimeoutOnSilentProvider(t *testing.T) {
	d := newDeploy(t, 150*time.Millisecond)
	conn := mustDial(t, d)
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	_, err := d.Client.Upload(context.Background(), conn, "txn-silent", "k", []byte("v"))
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The client still holds its NRO for escalation.
	if _, err := d.Client.PendingNRO("txn-silent"); err != nil {
		t.Fatalf("PendingNRO: %v", err)
	}
	// And the provider has the data + NRO: the exact unfairness window
	// the Resolve sub-protocol exists for.
	if _, err := d.Store.Get("k"); err != nil {
		t.Fatal("provider should have stored the data before going silent")
	}
}

func TestResolveAfterSilentProvider(t *testing.T) {
	d := newDeploy(t, 300*time.Millisecond)
	conn := mustDial(t, d)
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := d.Client.Upload(context.Background(), conn, "txn-r", "k", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("setup: %v", err)
	}
	// Bob answers the TTP even though he stonewalled Alice (he has no
	// incentive to defy the TTP — and if he did, the statement path
	// covers it; see the next test).
	d.Provider.SetMisbehavior(core.Misbehavior{})

	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := d.Client.Resolve(context.Background(), ttpConn, "txn-r", "no NRR before time limit")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "continue" {
		t.Fatalf("outcome = %q, want continue", res.Outcome)
	}
	if res.PeerEvidence == nil || res.PeerEvidence.Header.Kind != evidence.KindNRR {
		t.Fatal("resolve did not deliver the provider's NRR")
	}
	// The relayed NRR commits to the same digests as the upload —
	// Alice now holds everything a completed Normal run would give.
	nro, _ := d.Client.PendingNRO("txn-r")
	if !res.PeerEvidence.Header.DataMD5.Equal(nro.Header.DataMD5) {
		t.Fatal("relayed NRR digests differ from the NRO")
	}
}

func TestResolveUnresponsiveProvider(t *testing.T) {
	d := newDeploy(t, 300*time.Millisecond)
	conn := mustDial(t, d)
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true, IgnoreResolve: true})
	if _, err := d.Client.Upload(context.Background(), conn, "txn-ur", "k", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("setup: %v", err)
	}
	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := d.Client.Resolve(context.Background(), ttpConn, "txn-ur", "no NRR before time limit")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "peer-unresponsive" {
		t.Fatalf("outcome = %q, want peer-unresponsive", res.Outcome)
	}
	if res.TTPStatement == nil {
		t.Fatal("no signed TTP statement")
	}
	if res.PeerEvidence != nil {
		t.Fatal("unexpected peer evidence from an unresponsive provider")
	}
}

func TestResolveUnknownTransactionRestart(t *testing.T) {
	// Alice's NRO never reached Bob (dropped). Resolve must end with
	// Bob asking for a session restart, since the TTP does not forward
	// bulk data.
	d := newDeploy(t, 300*time.Millisecond)

	// Simulate the lost NRO by uploading through a connection that
	// drops everything.
	conn := mustDial(t, d)
	lossy := transport.Faulty(conn, transport.FaultSpec{DropProb: 1.0, Seed: 42})
	if _, err := d.Client.Upload(context.Background(), lossy, "txn-lost", "k", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("setup: %v", err)
	}
	if _, err := d.Store.Get("k"); err == nil {
		t.Fatal("provider should never have received the data")
	}

	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := d.Client.Resolve(context.Background(), ttpConn, "txn-lost", "request dropped in transit")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "restart" {
		t.Fatalf("outcome = %q, want restart", res.Outcome)
	}
}

func TestAbortPendingTransaction(t *testing.T) {
	d := newDeploy(t, 300*time.Millisecond)
	conn := mustDial(t, d)
	// Bob stores the data but never sends the NRR; Alice aborts.
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := d.Client.Upload(context.Background(), conn, "txn-a", "k", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("setup: %v", err)
	}
	d.Provider.SetMisbehavior(core.Misbehavior{})

	res, err := d.Client.Abort(context.Background(), conn, "txn-a", "undesired situation; canceling")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("abort of a pending transaction must be accepted")
	}
	if res.Receipt == nil || res.Receipt.Header.Kind != evidence.KindAbortAccept {
		t.Fatal("abort receipt missing or wrong kind")
	}
	// The provider dropped the partial object.
	if _, err := d.Store.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("aborted object still stored: %v", err)
	}
}

func TestAbortCompletedTransactionRejected(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn, "txn-done", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := d.Client.Abort(context.Background(), conn, "txn-done", "changed my mind")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("abort of a completed transaction must be rejected")
	}
	if res.Receipt.Header.Kind != evidence.KindAbortReject {
		t.Fatalf("receipt kind = %v", res.Receipt.Header.Kind)
	}
	// The object survives.
	if _, err := d.Store.Get("k"); err != nil {
		t.Fatal("object deleted despite rejected abort")
	}
}

func TestAbortUnknownTransactionAccepted(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	res, err := d.Client.Abort(context.Background(), conn, "txn-never-started", "never sent anything")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("abort of an unknown transaction should be accepted")
	}
}

func TestDownloadMissingObject(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	_, err := d.Client.Download(context.Background(), conn, "txn-miss", "no/such/object", "")
	if !errors.Is(err, core.ErrPeerRejected) {
		t.Fatalf("err = %v, want ErrPeerRejected", err)
	}
}

// TestReplayedNRORejected replays a captured upload message; the
// provider must reject it (unique sequence number + nonce, §5.4) and
// the store must hold exactly one version.
func TestReplayedNRORejected(t *testing.T) {
	d := newDeploy(t, 5*time.Second)

	var captured []byte
	ic := func(dir transport.Direction, msg []byte) ([]byte, bool) {
		if dir == transport.ClientToServer && captured == nil {
			captured = append([]byte(nil), msg...)
		}
		return msg, true
	}
	conn, tap, err := transport.Spliced(d.DialProvider, ic)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	if _, err := d.Client.Upload(context.Background(), conn, "txn-rp", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("tap captured nothing")
	}
	// Replay the identical NRO from the MITM position.
	if err := tap.Inject(transport.ClientToServer, captured); err != nil {
		t.Fatal(err)
	}
	// Give the provider a moment to process the replay.
	time.Sleep(100 * time.Millisecond)
	mem := d.Store.(*storage.Mem)
	if n, _ := mem.Versions("k"); n != 1 {
		t.Fatalf("replay created version %d", n)
	}
	if d.ProviderCounters.Get(metrics.ReplaysSeen) == 0 {
		t.Error("provider did not count the replay")
	}
}

// TestCorruptedPayloadRejected flips payload bytes in flight: the
// provider must answer with a signed error, surfacing as
// ErrPeerRejected at the client.
func TestCorruptedPayloadRejected(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	ic := func(dir transport.Direction, msg []byte) ([]byte, bool) {
		if dir != transport.ClientToServer {
			return msg, true
		}
		m, err := core.DecodeMessage(msg)
		if err != nil || len(m.Payload) == 0 {
			return msg, true
		}
		m.Payload[0] ^= 0xFF
		return m.Encode(), true
	}
	conn, tap, err := transport.Spliced(d.DialProvider, ic)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	_, err = d.Client.Upload(context.Background(), conn, "txn-corrupt", "k", []byte("vital data"))
	if !errors.Is(err, core.ErrPeerRejected) {
		t.Fatalf("err = %v, want ErrPeerRejected", err)
	}
	if _, err := d.Store.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("corrupted upload must not be stored")
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	m := &core.Message{HeaderBytes: []byte("hdr"), Payload: []byte("pay"), Sealed: []byte("sealed")}
	got, err := core.DecodeMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.HeaderBytes, m.HeaderBytes) || !bytes.Equal(got.Payload, m.Payload) || !bytes.Equal(got.Sealed, m.Sealed) {
		t.Fatal("message round trip mismatch")
	}
	if _, err := core.DecodeMessage([]byte("garbage")); err == nil {
		t.Fatal("garbage message decoded")
	}
	if _, err := core.DecodeMessage(append(m.Encode(), 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeMessageErrorBounded: the leading string of a frame is
// chosen by an unauthenticated peer, and the decode error ends up in
// the server's event log — it must describe the junk, not carry it.
// Nor may rejecting it cost a copy of it: the magic is compared in
// place.
func TestDecodeMessageErrorBounded(t *testing.T) {
	e := wire.NewEncoder(1<<20 + 8)
	e.String(string(bytes.Repeat([]byte{0xff}, 1<<20)))
	frame := e.Bytes()
	_, err := core.DecodeMessage(frame)
	if err == nil {
		t.Fatal("junk magic decoded")
	}
	if n := len(err.Error()); n >= 256 {
		t.Fatalf("error for a 1 MiB junk magic is %d bytes, want < 256", n)
	}

	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		core.DecodeMessage(frame)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 64<<10 {
		t.Fatalf("rejecting a 1 MiB junk magic allocates %d bytes, want < 64 KiB", per)
	}
}

func TestConcurrentUploads(t *testing.T) {
	d := newDeploy(t, 10*time.Second)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			conn, err := d.DialProvider()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			txn := session.NewTransactionID()
			_, err = d.Client.Upload(context.Background(), conn, txn, "obj/"+txn, bytes.Repeat([]byte{byte(i)}, 512))
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.Store.Keys()); got != n {
		t.Fatalf("stored %d objects, want %d", got, n)
	}
}

// TestProviderAuditLog: every protocol event lands in the provider's
// hash-chained log and the chain verifies.
func TestProviderAuditLog(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	log := auditlog.New(nil)
	d.Provider.SetAuditLog(log)
	conn := mustDial(t, d)

	if _, err := d.Client.Upload(context.Background(), conn, "txn-log", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Client.Download(context.Background(), conn, "txn-log-dl", "k", "txn-log"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Client.Abort(context.Background(), conn, "txn-log-2", "never mind"); err != nil {
		t.Fatal(err)
	}
	entries := log.Entries()
	if len(entries) != 3 {
		t.Fatalf("audit log has %d entries: %+v", len(entries), entries)
	}
	if entries[0].Kind != "upload" || entries[1].Kind != "download" || entries[2].Kind != "abort" {
		t.Fatalf("kinds = %s %s %s", entries[0].Kind, entries[1].Kind, entries[2].Kind)
	}
	if err := auditlog.Verify(entries); err != nil {
		t.Fatalf("audit chain invalid: %v", err)
	}
	if got := log.ByTxn("txn-log"); len(got) != 1 || got[0].Kind != "upload" {
		t.Fatalf("ByTxn = %+v", got)
	}
}

// TestProviderInitiatedResolve: Bob escalates to the TTP after sending
// his NRR. The client is not reachable through the TTP (clients do not
// listen), so Bob receives the TTP's signed unreachability statement —
// his proof of attempted completion.
func TestProviderInitiatedResolve(t *testing.T) {
	d := newDeploy(t, 400*time.Millisecond)
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn, "txn-pr", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := d.Provider.Resolve(context.Background(), ttpConn, "txn-pr", "no further client activity after NRR")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "peer-unreachable" {
		t.Fatalf("outcome = %q, want peer-unreachable", res.Outcome)
	}
	if res.TTPStatement == nil {
		t.Fatal("no TTP statement archived")
	}
}

// TestProviderResolveWithoutNRR: a provider that never issued an NRR
// has nothing to resolve with.
func TestProviderResolveWithoutNRR(t *testing.T) {
	d := newDeploy(t, 400*time.Millisecond)
	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	if _, err := d.Provider.Resolve(context.Background(), ttpConn, "txn-ghost", "x"); err == nil {
		t.Fatal("resolve without NRR succeeded")
	}
}

// TestUploadOverDuplicatingLink: duplicated messages are absorbed by
// the replay guard without breaking the happy path.
func TestUploadOverDuplicatingLink(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	dup := transport.Faulty(conn, transport.FaultSpec{DupProb: 1.0, Seed: 3})
	if _, err := d.Client.Upload(context.Background(), dup, "txn-dup", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Upload returns on the first NRR; the provider may still be
	// handling the duplicated NRO, so wait for it to be classified.
	deadline := time.Now().Add(5 * time.Second)
	for d.ProviderCounters.Get(metrics.ReplaysSeen) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate not counted as replay")
		}
		time.Sleep(time.Millisecond)
	}
	mem := d.Store.(*storage.Mem)
	if n, _ := mem.Versions("k"); n != 1 {
		t.Fatalf("duplicate NRO created version %d", n)
	}
}

// TestProviderHandleNeverPanics feeds random garbage at the
// provider's message entry point: it must neither panic nor store
// anything.
func TestProviderHandleNeverPanics(t *testing.T) {
	d := newDeploy(t, time.Second)
	rng := rand.New(rand.NewSource(99))
	f := func(raw []byte) bool {
		// Mix in mutated real messages for deeper coverage.
		if rng.Intn(2) == 0 && len(raw) > 0 {
			m := &core.Message{HeaderBytes: raw, Payload: raw, Sealed: raw}
			raw = m.Encode()
		}
		d.Provider.Handle(raw) // must not panic
		return len(d.Store.Keys()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestProviderRejectsBitFlippedMessages mutates a REAL captured NRO at
// every byte region; none of the variants may be accepted or stored.
func TestProviderRejectsBitFlippedMessages(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	var captured []byte
	ic := func(dir transport.Direction, msg []byte) ([]byte, bool) {
		if dir == transport.ClientToServer && captured == nil {
			captured = append([]byte(nil), msg...)
		}
		return msg, true
	}
	conn, tap, err := transport.Spliced(d.DialProvider, ic)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	if _, err := d.Client.Upload(context.Background(), conn, "txn-flip", "k", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	mem := d.Store.(*storage.Mem)
	base, _ := mem.Versions("k")

	step := len(captured) / 64
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(captured); i += step {
		mutated := append([]byte(nil), captured...)
		mutated[i] ^= 0x55
		reply, _ := d.Provider.Handle(mutated)
		if reply == nil {
			continue // silence is a rejection
		}
		m, err := core.DecodeMessage(reply)
		if err != nil {
			continue
		}
		h, err := m.Header()
		if err != nil {
			continue
		}
		if h.Kind == evidence.KindNRR {
			t.Fatalf("bit flip at byte %d produced an accepted NRR", i)
		}
	}
	if n, _ := mem.Versions("k"); n != base {
		t.Fatalf("bit-flipped replays changed storage: %d versions", n)
	}
}

// TestAbortErrorThenResubmit covers the §4.2 recovery path: "Bob will
// send an Error message that request Alice double check the parameters
// included in the Abort request, regenerate it, and re-submit the
// request." A corrupted abort elicits the signed Error; a regenerated
// abort then succeeds.
func TestAbortErrorThenResubmit(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	corruptNext := true
	ic := func(dir transport.Direction, msg []byte) ([]byte, bool) {
		if dir != transport.ClientToServer || !corruptNext {
			return msg, true
		}
		m, err := core.DecodeMessage(msg)
		if err != nil {
			return msg, true
		}
		// Corrupt the sealed evidence: header still decodes, so Bob can
		// answer with a signed Error instead of silence.
		if len(m.Sealed) > 0 {
			m.Sealed[len(m.Sealed)/2] ^= 0xFF
		}
		corruptNext = false
		return m.Encode(), true
	}
	conn, tap, err := transport.Spliced(d.DialProvider, ic)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	// First attempt: corrupted in flight → signed Error → ErrPeerRejected.
	if _, err := d.Client.Abort(context.Background(), conn, "txn-ab-retry", "first attempt"); !errors.Is(err, core.ErrPeerRejected) {
		t.Fatalf("corrupted abort: err = %v, want ErrPeerRejected", err)
	}
	// Regenerated resubmission sails through.
	res, err := d.Client.Abort(context.Background(), conn, "txn-ab-retry", "regenerated attempt")
	if err != nil {
		t.Fatalf("resubmitted abort: %v", err)
	}
	if !res.Accepted {
		t.Fatal("resubmitted abort not accepted")
	}
}
