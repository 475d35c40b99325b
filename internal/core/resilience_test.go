package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/leakcheck"
	"repro/internal/wal"
)

// newDeadlineDeploy wires a deployment whose provider enforces a step
// deadline; the short response timeout keeps the stalled-upload tests
// fast.
func newDeadlineDeploy(t testing.TB, step time.Duration, extra ...core.ServerOption) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Config{
		TestKeys:           true,
		ResponseTimeout:    150 * time.Millisecond,
		ProviderOpts:       []core.Option{core.WithDeadlinePolicy(core.DeadlinePolicy{Step: step})},
		ProviderServerOpts: extra,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestExpireStaleIssuesAbortReceipt drives the tentpole end to end: a
// provider bound by an NRO whose client never completes is expired,
// the blob is deleted, and the client recovers a provable abort via
// Resolve — the transaction ends decided, not dangling.
func TestExpireStaleIssuesAbortReceipt(t *testing.T) {
	leakcheck.At(t)
	d := newDeadlineDeploy(t, 30*time.Millisecond)
	conn := mustDial(t, d)

	// Bob stores the data and the NRO but withholds the receipt; Alice
	// times out with the session stuck at EvidenceReceived.
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	_, err := d.Client.Upload(context.Background(), conn, "txn-exp", "k/expired", []byte("stale payload"))
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("stalled upload: want ErrTimeout, got %v", err)
	}
	d.Provider.SetMisbehavior(core.Misbehavior{})

	// Reap with a far-future now so the test does not sleep.
	if n := d.Provider.ExpireStale(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ExpireStale expired %d sessions, want 1", n)
	}
	// Expiry must unbind the provider: blob deleted, abort receipt
	// archived. Holding the data while refusing the receipt is exactly
	// the §3 repudiation position the protocol exists to prevent.
	if _, err := d.Store.Get("k/expired"); err == nil {
		t.Fatal("expired session left its blob in the store")
	}
	if _, err := d.Provider.Archive().ByKind("txn-exp", evidence.RoleOwn, evidence.KindAbortAccept); err != nil {
		t.Fatalf("expired session has no abort receipt: %v", err)
	}
	// A second reap finds nothing: expiry is exactly-once.
	if n := d.Provider.ExpireStale(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("second ExpireStale expired %d sessions, want 0", n)
	}

	// Alice resolves and receives the relayed abort receipt — her
	// provable outcome for the dispute invariant.
	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	rr, err := d.Client.Resolve(context.Background(), ttpConn, "txn-exp", "no NRR before timeout")
	if err != nil {
		t.Fatalf("resolve after expiry: %v", err)
	}
	if rr.PeerEvidence == nil || rr.PeerEvidence.Header.Kind != evidence.KindAbortAccept {
		t.Fatalf("resolve outcome %q did not relay the abort receipt", rr.Outcome)
	}
}

// TestLateMessageOnExpiredSession checks the lazy half of expiry: a
// message arriving for an overdue session expires it inline and the
// sender gets a typed ErrExpired, not a hung session.
func TestLateMessageOnExpiredSession(t *testing.T) {
	leakcheck.At(t)
	d := newDeadlineDeploy(t, 30*time.Millisecond)
	conn := mustDial(t, d)

	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := d.Client.Upload(context.Background(), conn, "txn-late", "k/late", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("stalled upload: want ErrTimeout, got %v", err)
	}
	d.Provider.SetMisbehavior(core.Misbehavior{})

	// The 150ms client timeout already overran the 30ms step deadline;
	// the retried NRO must hit the inline expiry check.
	conn2 := mustDial(t, d)
	_, err := d.Client.Upload(context.Background(), conn2, "txn-late", "k/late", []byte("v"))
	if !errors.Is(err, core.ErrExpired) {
		t.Fatalf("late retry: want ErrExpired, got %v", err)
	}
}

// TestServerExpiryReaper runs the background reaper inside
// core.Server and checks a stale session is expired without any
// explicit ExpireStale call — and that the reaper goroutine stops on
// Shutdown (leakcheck).
func TestServerExpiryReaper(t *testing.T) {
	leakcheck.At(t)
	// The reaper starts ticking inside newDeadlineDeploy, before there is
	// a deployment to reap: it finds the provider through an atomic
	// pointer and has nothing to do until that is set.
	var provider atomic.Pointer[core.Provider]
	d := newDeadlineDeploy(t, 30*time.Millisecond,
		core.ServerExpiry(clock.Real(), 10*time.Millisecond, func(now time.Time) int {
			if p := provider.Load(); p != nil {
				return p.ExpireStale(now)
			}
			return 0
		}))
	provider.Store(d.Provider)
	conn := mustDial(t, d)

	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := d.Client.Upload(context.Background(), conn, "txn-reap", "k/reap", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatal("expected stalled upload to time out")
	}
	d.Provider.SetMisbehavior(core.Misbehavior{})

	// The client blocked 150ms; deadline passed at 30ms; the 10ms
	// reaper should have expired the session already — poll briefly to
	// absorb scheduler noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := d.Provider.Archive().ByKind("txn-reap", evidence.RoleOwn, evidence.KindAbortAccept); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper never expired the stale session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := d.Store.Get("k/reap"); err == nil {
		t.Fatal("reaper left the expired session's blob behind")
	}
}

// TestOverloadShedsWithRetryableError holds the server's one handler
// slot busy and checks the next request is shed with the typed,
// unsigned, retryable overload frame.
func TestOverloadShedsWithRetryableError(t *testing.T) {
	leakcheck.At(t)
	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	entered := make(chan struct{}, 1)
	faultpoint.Arm("server.handle.slow", func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	})
	defer faultpoint.Reset()
	defer release()

	d, err := deploy.New(deploy.Config{
		TestKeys:           true,
		ResponseTimeout:    2 * time.Second,
		ProviderServerOpts: []core.ServerOption{core.ServerMaxInflight(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	// First upload occupies the only handler slot.
	first := make(chan error, 1)
	conn1 := mustDial(t, d)
	go func() {
		_, err := d.Client.Upload(context.Background(), conn1, "txn-slow", "k/slow", []byte("a"))
		first <- err
	}()
	<-entered

	// Second upload must be shed, not queued behind the stuck handler.
	conn2 := mustDial(t, d)
	_, err = d.Client.Upload(context.Background(), conn2, "txn-shed", "k/shed", []byte("b"))
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("second upload under full server: want ErrOverloaded, got %v", err)
	}

	// Release the slot; the first upload completes normally — shedding
	// never cancels admitted work.
	faultpoint.Disarm("server.handle.slow")
	release()
	if err := <-first; err != nil {
		t.Fatalf("admitted upload failed after slot freed: %v", err)
	}
}

// TestDegradedJournalRefusesNewServesOld poisons the provider's WAL
// mid-run (ENOSPC at append) and checks the §4 degradation contract:
// new sessions are refused with a typed ErrDegraded, while reads on
// already-stored objects keep working.
func TestDegradedJournalRefusesNewServesOld(t *testing.T) {
	leakcheck.At(t)
	journal, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: 150 * time.Millisecond,
		ProviderOpts:    []core.Option{core.WithJournal(journal)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	conn := mustDial(t, d)

	if _, err := d.Client.Upload(context.Background(), conn, "txn-ok", "k/ok", []byte("healthy")); err != nil {
		t.Fatalf("healthy upload: %v", err)
	}

	// The disk fills: the next append fails and the WAL goes sticky
	// read-only.
	faultpoint.ArmErr("wal.append.enospc", func() error {
		return errors.New("write: no space left on device")
	})
	defer faultpoint.Reset()
	// This upload's journal append fails before the ack; the client
	// times out (the provider will not ack what it cannot persist).
	if _, err := d.Client.Upload(context.Background(), conn, "txn-trip", "k/trip", []byte("x")); err == nil {
		t.Fatal("upload with failing journal succeeded")
	}
	faultpoint.Disarm("wal.append.enospc")

	if d.Provider.Health() == nil || !d.Provider.Degraded() {
		t.Fatal("provider not degraded after journal append failure")
	}

	// New sessions are refused with the typed sentinel...
	conn2 := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn2, "txn-new", "k/new", []byte("y")); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("upload to degraded provider: want ErrDegraded, got %v", err)
	}
	// ...while existing data stays retrievable: degraded, not dead.
	res, err := d.Client.Download(context.Background(), conn2, "txn-dl", "k/ok", "txn-ok")
	if err != nil {
		t.Fatalf("download from degraded provider: %v", err)
	}
	if string(res.Data) != "healthy" {
		t.Fatal("degraded provider served wrong bytes")
	}
}

// TestBreakerFastFailsThenRecovers trips the session pool's TTP
// breaker with a dial blackhole, checks escalation fast-fails with
// ErrTTPUnavailable instead of burning dial timeouts, and then checks
// a half-open probe after the cooldown closes the breaker and the
// resolve completes.
func TestBreakerFastFailsThenRecovers(t *testing.T) {
	leakcheck.At(t)
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	br := breaker.New(breaker.Options{
		Window:       4,
		MinSamples:   2,
		FailureRatio: 0.5,
		Cooldown:     50 * time.Millisecond,
	})
	pool := d.NewPool(
		core.PoolRetries(2),
		core.PoolBackoff(time.Millisecond),
		core.PoolBreaker(br),
	)
	t.Cleanup(func() { pool.Close() })

	// TTP dials vanish; Bob also goes silent so the upload escalates.
	faultpoint.ArmErr("pool.ttp.dial-blackhole", func() error {
		return errors.New("dial ttp: network unreachable")
	})
	defer faultpoint.Reset()
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	_, err = pool.Upload(context.Background(), "txn-br", "k/br", []byte("v"))
	d.Provider.SetMisbehavior(core.Misbehavior{})
	if err == nil {
		t.Fatal("escalation with blackholed TTP succeeded")
	}
	// Attempt 1 and 2 fail at the dial; the breaker trips at two
	// samples, so the final attempt must be the fast-fail.
	if !errors.Is(err, core.ErrTTPUnavailable) {
		t.Fatalf("want ErrTTPUnavailable in chain, got %v", err)
	}
	if br.State() != breaker.Open {
		t.Fatalf("breaker state %v after repeated dial failures, want Open", br.State())
	}

	// Network heals; after the cooldown one probe is admitted, the
	// resolve reaches the TTP (Bob holds the NRO, so it relays the
	// receipt) and the breaker closes.
	faultpoint.Disarm("pool.ttp.dial-blackhole")
	time.Sleep(60 * time.Millisecond)
	rr, err := pool.Resolve(context.Background(), "txn-br", "NRR withheld; retrying after breaker cooldown")
	if err != nil {
		t.Fatalf("resolve after breaker cooldown: %v", err)
	}
	if rr.PeerEvidence == nil {
		t.Fatalf("resolve outcome %q carried no relayed evidence", rr.Outcome)
	}
	if br.State() != breaker.Closed {
		t.Fatalf("breaker state %v after successful probe, want Closed", br.State())
	}
}
