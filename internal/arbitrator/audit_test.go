package arbitrator_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/evidence"
)

// lateArb is an arbitrator hearing the dispute a day later — past any
// challenge's journaled response deadline, the realistic timeline for
// a storage-dwell dispute.
func lateArb(fx *fixture) *arbitrator.Arbitrator {
	return arbitrator.NewWithKey(fx.d.CA.Key(), fx.d.CA.Lookup,
		func() time.Time { return time.Now().Add(24 * time.Hour) })
}

func clientEv(t *testing.T, fx *fixture, role evidence.Role, kind evidence.Kind) *evidence.Evidence {
	t.Helper()
	ev, err := fx.d.Client.Archive().ByKind("txn-dispute", role, kind)
	if err != nil {
		t.Fatalf("client archive holds no %s/%s: %v", role, kind, err)
	}
	return ev
}

// TestAuditSilenceConvictsOnlyPastDeadline: an unanswered challenge is
// conviction material only once its journaled TimeLimit lapses. Before
// that, the claimant controls when the dispute is heard — it could
// journal a challenge and run straight to the arbitrator (or the
// answer could still be in flight), so silence proves nothing yet.
func TestAuditSilenceConvictsOnlyPastDeadline(t *testing.T) {
	fx := newFixture(t)
	fx.d.Provider.SetMisbehavior(core.Misbehavior{IgnoreAudit: true})
	if _, err := fx.d.Client.AuditObject(context.Background(), fx.conn, "txn-dispute", 2); err == nil {
		t.Fatal("lazy provider answered the audit")
	}
	fx.d.Provider.SetMisbehavior(core.Misbehavior{})

	c := fx.baseCase()
	c.AuditChallenge = clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)
	c.ProducedData = fx.produced(t) // the object itself is intact

	// Heard immediately: the response window is still open, so the
	// unanswered challenge cannot convict and the matching produced
	// data defeats the claim.
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("pre-deadline verdict = %v, want claim-false\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
	joined := strings.Join(dec.Findings, "\n")
	if !strings.Contains(joined, "deadline") {
		t.Errorf("findings do not explain the open deadline:\n%s", joined)
	}

	// Heard after the deadline: silence against a valid challenge now
	// convicts, produced data or not — the provider provably never
	// proved possession inside the window it signed up for.
	if dec := lateArb(fx).Decide(c); dec.Verdict != arbitrator.VerdictAuditFailed {
		t.Fatalf("post-deadline verdict = %v, want audit-failed\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestForgedAuditDeadlineRejected: a claimant cannot shorten (or
// strip) the challenge's deadline after the fact to convict early —
// the TimeLimit rides under the challenge signature.
func TestForgedAuditDeadlineRejected(t *testing.T) {
	fx := newFixture(t)
	fx.d.Provider.SetMisbehavior(core.Misbehavior{IgnoreAudit: true})
	if _, err := fx.d.Client.AuditObject(context.Background(), fx.conn, "txn-dispute", 2); err == nil {
		t.Fatal("lazy provider answered the audit")
	}
	fx.d.Provider.SetMisbehavior(core.Misbehavior{})

	ch := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)
	forged := *ch
	fh := *ch.Header
	fh.TimeLimit = time.Now().Add(-time.Hour) // pretend it lapsed already
	forged.Header = &fh

	c := fx.baseCase()
	c.AuditChallenge = &forged
	c.ProducedData = fx.produced(t)
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("verdict = %v, want claim-false (forged challenge ignored)\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestAuditPassDoesNotExcuseNonProduction: a provider that once passed
// an audit (pool sweeps run automatically) but has since lost the
// object must still convict when it produces nothing at arbitration.
// Only an explicitly audit-only dispute ends at claim-false on the
// strength of the response alone.
func TestAuditPassDoesNotExcuseNonProduction(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.d.Client.AuditObject(context.Background(), fx.conn, "txn-dispute", 2); err != nil {
		t.Fatalf("honest audit failed: %v", err)
	}
	ch := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)
	resp := clientEv(t, fx, evidence.RolePeer, evidence.KindAuditResponse)

	fx.d.Store.Delete("finance/records")
	c := fx.baseCase()
	c.AuditChallenge, c.AuditResponse = ch, resp
	c.ProducedData = fx.produced(t) // nil: the object is gone
	dec := lateArb(fx).Decide(c)
	if dec.Verdict != arbitrator.VerdictProviderFault {
		t.Fatalf("verdict = %v, want provider-at-fault (audit pass must not excuse non-production)\n%s",
			dec.Verdict, strings.Join(dec.Findings, "\n"))
	}

	// The same evidence in an audit-only dispute (no production was
	// demanded) exonerates: the response proved possession.
	c.AuditOnly = true
	if dec := lateArb(fx).Decide(c); dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("audit-only verdict = %v, want claim-false\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestStaleResponseCannotBypassDeadline: pairing a stale round's
// response with a newer challenge directly in the Case must not fast-
// track a conviction before the challenge's deadline — the mismatched
// nonce means the challenge is simply unanswered, so the silence rule
// governs. Without this, a claimant holding any old response could
// convict instantly, sidestepping the deadline rule entirely.
func TestStaleResponseCannotBypassDeadline(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	const txn = "txn-dispute"

	if _, err := fx.d.Client.AuditObject(ctx, fx.conn, txn, 2); err != nil {
		t.Fatalf("audit round 1: %v", err)
	}
	resp1 := clientEv(t, fx, evidence.RolePeer, evidence.KindAuditResponse)

	fx.d.Provider.SetMisbehavior(core.Misbehavior{IgnoreAudit: true})
	if _, err := fx.d.Client.AuditObject(ctx, fx.conn, txn, 2); err == nil {
		t.Fatal("lazy provider answered the audit")
	}
	fx.d.Provider.SetMisbehavior(core.Misbehavior{})
	ch2 := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)

	c := fx.baseCase()
	c.AuditChallenge, c.AuditResponse = ch2, resp1
	c.ProducedData = fx.produced(t)

	// Heard inside round 2's response window: the stale response is not
	// an answer to ch2, the window is still open, and the intact object
	// defeats the claim.
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("pre-deadline verdict = %v, want claim-false\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}

	// Heard after the window: the challenge is genuinely unanswered and
	// the stale response does nothing to save the provider.
	if dec := lateArb(fx).Decide(c); dec.Verdict != arbitrator.VerdictAuditFailed {
		t.Fatalf("post-deadline verdict = %v, want audit-failed\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestColdCasePairsAuditResponseByNonce reproduces the multi-round
// trap: after several audit rounds, picking the newest challenge and
// the newest response a bundle happens to hold can pair challenge N
// with stale response N-1 — a nonce mismatch that convicts an honest
// provider. Worse, if the provider's reply to round N was lost in
// flight (crash after journaling), the claimant's stale copy used to
// shadow the respondent's journaled answer. CaseFromBundles must pair
// by nonce across BOTH bundles.
func TestColdCasePairsAuditResponseByNonce(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	const txn = "txn-dispute"

	// Round 1: honest — claimant journals ch1 + resp1.
	if _, err := fx.d.Client.AuditObject(ctx, fx.conn, txn, 2); err != nil {
		t.Fatalf("audit round 1: %v", err)
	}
	ch1 := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)
	resp1 := clientEv(t, fx, evidence.RolePeer, evidence.KindAuditResponse)
	resp1p, err := fx.d.Engine.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindAuditResponse)
	if err != nil {
		t.Fatalf("provider's own round-1 response: %v", err)
	}

	// Round 2: honest again — but the reply never reaches the claimant
	// (modeled below by leaving resp2 out of the claimant bundle; the
	// provider journaled its copy before sending).
	if _, err := fx.d.Client.AuditObject(ctx, fx.conn, txn, 2); err != nil {
		t.Fatalf("audit round 2: %v", err)
	}
	ch2 := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)
	resp2p, err := fx.d.Engine.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindAuditResponse)
	if err != nil {
		t.Fatalf("provider's own round-2 response: %v", err)
	}
	wantCh, err := audit.ParseChallengeNote(ch2.Header.Note)
	if err != nil {
		t.Fatal(err)
	}

	nro := fx.up.NRO
	nrr := fx.up.NRR
	nrrOwn, err := fx.d.Engine.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR)
	if err != nil {
		t.Fatal(err)
	}
	item := func(role evidence.Role, ev *evidence.Evidence) archive.Item {
		return archive.Item{Role: uint8(role), Blob: ev.Encode()}
	}
	// Claimant bundle in arrival order: round 2's reply is missing, so
	// its newest response is the stale resp1.
	cb := &archive.Bundle{Txn: txn, Items: []archive.Item{
		item(evidence.RoleOwn, nro),
		item(evidence.RolePeer, nrr),
		item(evidence.RoleOwn, ch1),
		item(evidence.RolePeer, resp1),
		item(evidence.RoleOwn, ch2),
	}}
	pb := &archive.Bundle{Txn: txn, Items: []archive.Item{
		item(evidence.RoleOwn, nrrOwn),
		item(evidence.RoleOwn, resp1p),
		item(evidence.RoleOwn, resp2p),
	}}

	c, err := arbitrator.CaseFromBundles(cb, pb, fx.produced(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.AuditResponse == nil {
		t.Fatal("no audit response paired; the respondent's journaled answer was never consulted")
	}
	got, err := audit.ParseResponseNote(c.AuditResponse.Header.Note)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Nonce, wantCh.Nonce) {
		t.Fatal("paired response answers a different challenge's nonce (stale round)")
	}
	dec := lateArb(fx).Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("verdict = %v, want claim-false — honest provider convicted on a stale pairing\n%s",
			dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestColdCaseUnansweredChallengeStillConvicts: the nonce pairing must
// not weaken the lazy-provider conviction — a genuinely unanswered
// newest challenge (both bundles silent on its nonce) still convicts
// once its deadline lapses, even though an older round was answered.
func TestColdCaseUnansweredChallengeStillConvicts(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	const txn = "txn-dispute"

	if _, err := fx.d.Client.AuditObject(ctx, fx.conn, txn, 2); err != nil {
		t.Fatalf("audit round 1: %v", err)
	}
	ch1 := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)
	resp1 := clientEv(t, fx, evidence.RolePeer, evidence.KindAuditResponse)

	fx.d.Provider.SetMisbehavior(core.Misbehavior{IgnoreAudit: true})
	if _, err := fx.d.Client.AuditObject(ctx, fx.conn, txn, 2); err == nil {
		t.Fatal("lazy provider answered the audit")
	}
	fx.d.Provider.SetMisbehavior(core.Misbehavior{})
	ch2 := clientEv(t, fx, evidence.RoleOwn, evidence.KindAuditChallenge)

	item := func(role evidence.Role, ev *evidence.Evidence) archive.Item {
		return archive.Item{Role: uint8(role), Blob: ev.Encode()}
	}
	cb := &archive.Bundle{Txn: txn, Items: []archive.Item{
		item(evidence.RoleOwn, fx.up.NRO),
		item(evidence.RolePeer, fx.up.NRR),
		item(evidence.RoleOwn, ch1),
		item(evidence.RolePeer, resp1),
		item(evidence.RoleOwn, ch2),
	}}
	c, err := arbitrator.CaseFromBundles(cb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.AuditResponse != nil {
		t.Fatal("stale round-1 response paired with the unanswered round-2 challenge")
	}
	dec := lateArb(fx).Decide(c)
	if dec.Verdict != arbitrator.VerdictAuditFailed {
		t.Fatalf("verdict = %v, want audit-failed\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}
