package session_test

// A transaction's outbound counter, its per-sender inbound floors, its
// state and its step deadline are kept in the protocol engine's
// transaction record (internal/core), beside the nonce window this
// package provides. These tests hold that bookkeeping to the contracts
// this package states for it (ErrOutOfOrder, the terminal states),
// through core's exported party surface:
// core.TTPParty numbers, builds and checks messages by hand, and a
// Provider's Handle and ExpireStale drive state and deadlines.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/pki"
	"repro/internal/session"
)

const scheme = cryptoutil.SchemeEd25519

// enroll gives name an identity under ca and returns its raw party.
func enroll(t *testing.T, ca *pki.Authority, name string, slot int, clk clock.Clock) *core.TTPParty {
	t.Helper()
	now := clk.Now()
	id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKeyScheme(slot, scheme), now.Add(-time.Hour), now.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewTTPParty(
		core.WithIdentity(id),
		core.WithCAPublicKey(ca.Key()),
		core.WithDirectory(core.Directory(ca.Lookup)),
		core.WithClock(clk),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pair returns a sender and a receiver enrolled under one fresh CA.
func pair(t *testing.T) (from, to *core.TTPParty) {
	t.Helper()
	ca := pki.NewAuthority("ca", cryptoutil.InsecureTestKeyScheme(120, scheme))
	return enroll(t, ca, "carol", 121, clock.Real()), enroll(t, ca, "dave", 122, clock.Real())
}

// message builds from's sealed message of kind for txn at seq,
// addressed to to and carrying payload (an upload stores it under
// "k/"+txn).
func message(t *testing.T, from *core.TTPParty, kind evidence.Kind, txn, to string, seq uint64, payload []byte) *core.Message {
	t.Helper()
	key, err := from.PeerPublicKey(to)
	if err != nil {
		t.Fatal(err)
	}
	h := from.NewHeader(kind, txn, to, deploy.TTPName, seq)
	if kind == evidence.KindNRO {
		h.ObjectKey = "k/" + txn
	}
	h.SetDigests(payload)
	m, _, err := from.BuildMessageFor(h, payload, key)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCounterMonotone(t *testing.T) {
	p, _ := pair(t)
	for want := uint64(1); want <= 100; want++ {
		if got := p.NextSeq("t1"); got != want {
			t.Fatalf("NextSeq = %d, want %d", got, want)
		}
	}
	// Each transaction numbers its messages from 1.
	if got := p.NextSeq("t2"); got != 1 {
		t.Fatalf("another transaction's first NextSeq = %d, want 1", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	p, _ := pair(t)
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, 8)
	for i := range seen {
		seen[i] = make(map[uint64]bool)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				seen[i][p.NextSeq("t1")] = true
			}
		}(i)
	}
	wg.Wait()
	all := map[uint64]bool{}
	for _, m := range seen {
		for v := range m {
			if all[v] {
				t.Fatalf("sequence %d issued twice", v)
			}
			all[v] = true
		}
	}
	if len(all) != 4000 {
		t.Fatalf("issued %d unique sequence numbers, want 4000", len(all))
	}
}

func TestCounterSkipTo(t *testing.T) {
	p, _ := pair(t)
	if got := p.BumpSeqTo("t1", 1<<62); got != 1<<62+1 { // must complete instantly, not iterate
		t.Fatalf("BumpSeqTo past 2^62 = %d", got)
	}
	// Skipping never goes backwards.
	if got := p.BumpSeqTo("t1", 5); got != 1<<62+2 {
		t.Fatalf("backwards BumpSeqTo = %d", got)
	}
	if got := p.NextSeq("t1"); got != 1<<62+3 {
		t.Fatalf("NextSeq after the skips = %d", got)
	}
}

func TestGuardAcceptsIncreasingSequences(t *testing.T) {
	from, to := pair(t)
	// Gaps are fine; only monotonicity matters.
	for _, seq := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100} {
		if _, _, err := to.CheckInbound(message(t, from, evidence.KindNRO, "t1", "dave", seq, nil)); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
}

func TestGuardRejectsNonIncreasing(t *testing.T) {
	from, to := pair(t)
	outOfOrder := func(err error) bool {
		return errors.Is(err, core.ErrProtocol) && strings.Contains(err.Error(), session.ErrOutOfOrder.Error())
	}
	if _, _, err := to.CheckInbound(message(t, from, evidence.KindNRO, "t1", "dave", 5, nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := to.CheckInbound(message(t, from, evidence.KindNRO, "t1", "dave", 5, nil)); !outOfOrder(err) {
		t.Fatalf("equal seq: %v", err)
	}
	if _, _, err := to.CheckInbound(message(t, from, evidence.KindNRO, "t1", "dave", 4, nil)); !outOfOrder(err) {
		t.Fatalf("lower seq: %v", err)
	}
	// A different transaction has its own sequence space.
	if _, _, err := to.CheckInbound(message(t, from, evidence.KindNRO, "t2", "dave", 1, nil)); err != nil {
		t.Fatalf("other txn: %v", err)
	}
}

// providerWorld is a deployment on a virtual clock whose provider
// enforces a one-second step deadline, and a raw client party, carol,
// whose messages the test hands to the provider directly.
type providerWorld struct {
	t     *testing.T
	d     *deploy.Deployment
	vc    *clock.Virtual
	carol *core.TTPParty
}

const step = time.Second

func newProviderWorld(t *testing.T) *providerWorld {
	t.Helper()
	vc := clock.NewVirtual(time.Now())
	d, err := deploy.New(deploy.Config{
		TestKeys: true, Scheme: scheme, Clock: vc,
		ProviderOpts: []core.Option{core.WithDeadlinePolicy(core.DeadlinePolicy{Step: step})},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return &providerWorld{t: t, d: d, vc: vc, carol: enroll(t, d.CA, "carol", 123, vc)}
}

// send hands carol's next message of kind for txn to the provider and
// returns the kind of its reply (zero when it stays silent).
func (w *providerWorld) send(kind evidence.Kind, txn string) evidence.Kind {
	w.t.Helper()
	m := message(w.t, w.carol, kind, txn, deploy.ProviderName, w.carol.NextSeq(txn), []byte("payload of "+txn))
	raw, err := w.d.Provider.Handle(m.Encode())
	if err != nil {
		w.t.Fatalf("%s for %s: %v", kind, txn, err)
	}
	if raw == nil {
		return 0
	}
	reply, err := core.DecodeMessage(raw)
	if err != nil {
		w.t.Fatal(err)
	}
	h, _, err := w.carol.CheckInbound(reply)
	if err != nil {
		w.t.Fatal(err)
	}
	return h.Kind
}

// stall uploads txn to a provider that keeps the NRO and withholds the
// receipt, leaving its transaction in evidence-received.
func (w *providerWorld) stall(txn string) {
	w.t.Helper()
	w.d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	defer w.d.Provider.SetMisbehavior(core.Misbehavior{})
	if got := w.send(evidence.KindNRO, txn); got != 0 {
		w.t.Fatalf("stalled upload of %s answered %s", txn, got)
	}
}

func (w *providerWorld) expire(at time.Time, want int) {
	w.t.Helper()
	if n := w.d.Provider.ExpireStale(at); n != want {
		w.t.Fatalf("ExpireStale(+%v) expired %d transactions, want %d", at.Sub(w.vc.Now()), n, want)
	}
}

func TestTrackerLifecycle(t *testing.T) {
	w := newProviderWorld(t)
	// Unknown: nothing to abort, and the abort is recorded.
	if got := w.send(evidence.KindAbortRequest, "ghost"); got != evidence.KindAbortAccept {
		t.Fatalf("abort of an unknown transaction answered %s", got)
	}
	// evidence-received → completed; completed is terminal.
	if got := w.send(evidence.KindNRO, "t1"); got != evidence.KindNRR {
		t.Fatalf("upload answered %s", got)
	}
	for i := 0; i < 2; i++ {
		if got := w.send(evidence.KindAbortRequest, "t1"); got != evidence.KindAbortReject {
			t.Fatalf("abort of a completed transaction answered %s", got)
		}
	}
	// evidence-received → aborted: the stored object goes with it.
	w.stall("t2")
	if _, err := w.d.Store.Get("k/t2"); err != nil {
		t.Fatalf("stalled upload stored nothing: %v", err)
	}
	if got := w.send(evidence.KindAbortRequest, "t2"); got != evidence.KindAbortAccept {
		t.Fatalf("abort of a pending transaction answered %s", got)
	}
	if _, err := w.d.Store.Get("k/t2"); err == nil {
		t.Fatal("aborted transaction left its object in the store")
	}
}

// TestTrackerDeadlines covers stamp/restamp/clear and the exactly-once
// contract of the expiry sweep.
func TestTrackerDeadlines(t *testing.T) {
	w := newProviderWorld(t)
	base := w.vc.Now()
	w.stall("a")
	w.stall("b")
	w.stall("c")

	// Nothing due yet.
	w.expire(base, 0)

	// Restamping replaces the deadline: b's retried NRO moves it to
	// base+1.5s.
	w.vc.Advance(step / 2)
	w.stall("b")
	// Clearing removes it entirely: c aborts.
	if got := w.send(evidence.KindAbortRequest, "c"); got != evidence.KindAbortAccept {
		t.Fatalf("abort answered %s", got)
	}

	// a due (inclusive), b not.
	w.expire(base.Add(step), 1)
	if _, err := w.d.Provider.EvidenceByKind("a", evidence.RoleOwn, evidence.KindAbortAccept); err != nil {
		t.Fatalf("expired transaction has no abort receipt: %v", err)
	}
	if _, err := w.d.Provider.EvidenceByKind("b", evidence.RoleOwn, evidence.KindAbortAccept); err == nil {
		t.Fatal("restamped transaction expired on its old deadline")
	}
	// a's deadline was consumed: not reported again.
	w.expire(base.Add(step+step/4), 0)
	w.expire(base.Add(step+step/2), 1)
	w.expire(base.Add(time.Hour), 0)
}

// TestExpireBeforeSkipsTerminal checks an overdue transaction already
// in a terminal state is never expired — expiring it again would
// double-issue abort evidence.
func TestExpireBeforeSkipsTerminal(t *testing.T) {
	w := newProviderWorld(t)
	w.stall("aborted")
	if got := w.send(evidence.KindAbortRequest, "aborted"); got != evidence.KindAbortAccept {
		t.Fatalf("abort answered %s", got)
	}
	if got := w.send(evidence.KindNRO, "done"); got != evidence.KindNRR {
		t.Fatalf("upload answered %s", got)
	}
	w.expire(w.vc.Now().Add(time.Hour), 0)
	// Unknown transactions are never expired either.
	if got := w.send(evidence.KindAbortRequest, "ghost"); got != evidence.KindAbortAccept {
		t.Fatalf("abort of an unknown transaction answered %s", got)
	}
	w.expire(w.vc.Now().Add(time.Hour), 0)
}
