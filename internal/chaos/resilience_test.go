// Chaos scenarios for the resilience layer: disk pressure, TTP
// outage behind the circuit breaker, and overload plus step-deadline
// expiry. Each drives the system through the degraded regime and then
// re-checks the dispute invariant — degradation may slow the protocol
// down, but it must never leave a transaction half-bound.
package chaos

import (
	"context"
	"errors"
	"path/filepath"
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
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestChaosDegradedDiskPressure fills the provider's "disk" mid-run:
// the WAL goes sticky read-only, new sessions are refused with a
// typed error, but the session wedged by the failing append still
// reaches a provable outcome through Resolve, and stored data stays
// readable.
func TestChaosDegradedDiskPressure(t *testing.T) {
	leakcheck.At(t)
	defer faultpoint.Reset()
	ctx := context.Background()
	dir := t.TempDir()
	store := storage.NewMem(time.Now)
	pw, err := wal.Open(filepath.Join(dir, "provider"), wal.Options{Policy: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: chaosTimeout,
		ProviderStore:   store,
		ProviderOpts:    []core.Option{core.WithJournal(pw)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	w := &world{d: d, store: store}

	conn, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := d.Client.Upload(ctx, conn, "txn-pre", "chaos/pre", []byte("before the disk filled")); err != nil {
		t.Fatalf("healthy upload: %v", err)
	}

	// The disk fills under an in-flight upload: the provider journals
	// the step's NRO, object binding and receipt as one batch, the batch
	// fails, so it withholds the ack and binds nothing — the batch's
	// effects are applied only once it is durable.
	faultpoint.ArmErr("wal.append.enospc", func() error {
		return errors.New("write: no space left on device")
	})
	if _, err := d.Client.Upload(ctx, conn, "txn-wedged", "chaos/wedged", []byte("wedged payload")); err == nil {
		t.Fatal("upload over a full disk succeeded")
	}
	faultpoint.Disarm("wal.append.enospc")
	if !d.Provider.Degraded() {
		t.Fatal("provider not degraded after ENOSPC")
	}

	// New sessions are refused while degraded...
	conn2, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := d.Client.Upload(ctx, conn2, "txn-refused", "chaos/refused", []byte("x")); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("new session on degraded provider: want ErrDegraded, got %v", err)
	}
	// ...but the wedged session still converges through §4.3: the
	// provider, which never bound it, answers the TTP's query with a
	// restart, and the client holds the TTP's signed statement.
	tc, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	rr, err := d.Client.Resolve(ctx, tc, "txn-wedged", "no ack under disk pressure")
	if err != nil {
		t.Fatalf("resolve on degraded provider: %v", err)
	}
	if rr.TTPStatement == nil || rr.Outcome != "restart" {
		t.Fatalf("resolve outcome %q (statement %v), want a signed restart", rr.Outcome, rr.TTPStatement != nil)
	}
	// Reads survive degradation.
	if _, err := d.Client.Download(ctx, conn2, "txn-dl", "chaos/pre", "txn-pre"); err != nil {
		t.Fatalf("download from degraded provider: %v", err)
	}

	for txn, key := range map[string]string{
		"txn-pre": "chaos/pre", "txn-wedged": "chaos/wedged", "txn-refused": "chaos/refused",
	} {
		assertDisputeInvariant(t, w, txn, key)
	}
}

// TestChaosTTPBlackholeBreaker blackholes the TTP while the provider
// is silent: escalation must fast-fail through the breaker instead of
// hanging, and once the network heals a probe closes the breaker and
// the transaction converges with relayed evidence.
func TestChaosTTPBlackholeBreaker(t *testing.T) {
	leakcheck.At(t)
	defer faultpoint.Reset()
	ctx := context.Background()
	store := storage.NewMem(time.Now)
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: chaosTimeout,
		ProviderStore:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	w := &world{d: d, store: store}

	br := breaker.New(breaker.Options{
		Window:       4,
		MinSamples:   2,
		FailureRatio: 0.5,
		Cooldown:     50 * time.Millisecond,
	})
	pool := d.NewPool(core.PoolRetries(3), core.PoolBackoff(time.Millisecond), core.PoolBreaker(br))
	t.Cleanup(func() { pool.Close() })

	faultpoint.ArmErr("pool.ttp.dial-blackhole", func() error {
		return errors.New("dial ttp: network unreachable")
	})
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	_, err = pool.Upload(ctx, "txn-bh", "chaos/bh", []byte("blackhole payload"))
	d.Provider.SetMisbehavior(core.Misbehavior{})
	if !errors.Is(err, core.ErrTTPUnavailable) {
		t.Fatalf("escalation during TTP outage: want ErrTTPUnavailable in chain, got %v", err)
	}
	if br.State() != breaker.Open {
		t.Fatalf("breaker %v after outage, want Open", br.State())
	}

	// Outage ends; the cooldown elapses; the next resolve is the
	// half-open probe and must conclude the transaction.
	faultpoint.Disarm("pool.ttp.dial-blackhole")
	time.Sleep(60 * time.Millisecond)
	rr, err := pool.Resolve(ctx, "txn-bh", "retry after TTP outage")
	if err != nil {
		t.Fatalf("resolve after outage: %v", err)
	}
	if rr.PeerEvidence == nil || rr.PeerEvidence.Header.Kind != evidence.KindNRR {
		t.Fatalf("resolve outcome %q did not relay the withheld NRR", rr.Outcome)
	}
	if br.State() != breaker.Closed {
		t.Fatalf("breaker %v after successful probe, want Closed", br.State())
	}
	assertDisputeInvariant(t, w, "txn-bh", "chaos/bh")
}

// TestChaosOverloadAndExpiry combines admission control with the step
// deadline: a stuck handler forces a shed (typed, retryable), and a
// session stalled past its deadline is reaped into a provable abort
// that Resolve then relays.
func TestChaosOverloadAndExpiry(t *testing.T) {
	leakcheck.At(t)
	defer faultpoint.Reset()
	ctx := context.Background()
	store := storage.NewMem(time.Now)
	// The reaper goroutine starts inside deploy.New and may tick before
	// New's result is assigned, so the expiry hook must not read the
	// deployment variable directly — it loads the provider through an
	// atomic published after New returns (ticks before that are no-ops).
	var prov atomic.Pointer[core.Provider]
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		ResponseTimeout: chaosTimeout,
		ProviderStore:   store,
		ProviderOpts: []core.Option{
			core.WithDeadlinePolicy(core.DeadlinePolicy{Step: 50 * time.Millisecond}),
		},
		ProviderServerOpts: []core.ServerOption{
			core.ServerMaxInflight(1),
			core.ServerExpiry(clock.Real(), 10*time.Millisecond, func(now time.Time) int {
				if p := prov.Load(); p != nil {
					return p.ExpireStale(now)
				}
				return 0
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prov.Store(d.Provider)
	t.Cleanup(d.Close)
	w := &world{d: d, store: store}

	// Overload: one handler wedges, the next request is shed.
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	faultpoint.Arm("server.handle.slow", func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	})
	conn1, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	slow := make(chan error, 1)
	go func() {
		_, err := d.Client.Upload(ctx, conn1, "txn-slow", "chaos/slow", []byte("slow"))
		slow <- err
	}()
	<-entered
	conn2, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := d.Client.Upload(ctx, conn2, "txn-shed", "chaos/shed", []byte("shed")); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("upload into full server: want ErrOverloaded, got %v", err)
	}
	faultpoint.Disarm("server.handle.slow")
	close(block)
	if err := <-slow; err != nil {
		t.Fatalf("admitted upload failed once unwedged: %v", err)
	}
	// The shed transaction retries cleanly — a shed is a delay, never a
	// dispute.
	if _, err := d.Client.Upload(ctx, conn2, "txn-shed", "chaos/shed", []byte("shed")); err != nil {
		t.Fatalf("retry of shed upload: %v", err)
	}

	// Expiry: the provider binds, the client stalls past the deadline,
	// the background reaper converts the session into a provable abort.
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := d.Client.Upload(ctx, conn2, "txn-stale", "chaos/stale", []byte("stale")); !errors.Is(err, core.ErrTimeout) {
		t.Fatal("expected the stalled upload to time out")
	}
	d.Provider.SetMisbehavior(core.Misbehavior{})
	tc, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	rr, err := d.Client.Resolve(ctx, tc, "txn-stale", "stalled past step deadline")
	if err != nil {
		t.Fatalf("resolve of expired session: %v", err)
	}
	if rr.PeerEvidence == nil || rr.PeerEvidence.Header.Kind != evidence.KindAbortAccept {
		t.Fatalf("resolve outcome %q did not relay the expiry abort receipt", rr.Outcome)
	}

	for txn, key := range map[string]string{
		"txn-slow": "chaos/slow", "txn-shed": "chaos/shed", "txn-stale": "chaos/stale",
	} {
		assertDisputeInvariant(t, w, txn, key)
	}
}
