package arbitrator_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/storage"
	"repro/internal/transport"
)

// fixture runs a full upload on a real deployment and returns the
// pieces a dispute needs.
type fixture struct {
	d    *deploy.Deployment
	arb  *arbitrator.Arbitrator
	conn transport.Conn
	up   *core.UploadResult
	data []byte
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	conn, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	data := []byte("company financial records: total = 1000")
	up, err := d.Client.Upload(context.Background(), conn, "txn-dispute", "finance/records", data)
	if err != nil {
		t.Fatal(err)
	}
	arb := arbitrator.NewWithKey(d.CA.Key(), d.CA.Lookup, nil)
	return &fixture{d: d, arb: arb, conn: conn, up: up, data: data}
}

func (fx *fixture) baseCase() *arbitrator.Case {
	return &arbitrator.Case{
		TxnID:        "txn-dispute",
		ObjectKey:    "finance/records",
		ClaimantID:   deploy.ClientName,
		RespondentID: deploy.ProviderName,
		ClaimantNRO:  fx.up.NRO,
		ClaimantNRR:  fx.up.NRR,
	}
}

// produced returns what the provider's store currently serves.
func (fx *fixture) produced(t *testing.T) []byte {
	t.Helper()
	obj, err := fx.d.Store.Get("finance/records")
	if err != nil {
		return nil
	}
	return obj.Data
}

// TestProviderFaultOnTamper: Eve tampers in storage (covering her
// tracks at the platform layer); the arbitrator rules against her.
func TestProviderFaultOnTamper(t *testing.T) {
	fx := newFixture(t)
	tam := fx.d.Store.(storage.Tamperer)
	if err := tam.Tamper("finance/records", true, func(b []byte) []byte {
		return bytes.Replace(b, []byte("1000"), []byte("9999"), 1)
	}); err != nil {
		t.Fatal(err)
	}
	c := fx.baseCase()
	c.ProducedData = fx.produced(t)
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictProviderFault {
		t.Fatalf("verdict = %v, want provider-at-fault\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
	if dec.AgreedMD5.IsZero() {
		t.Error("agreed digest not established")
	}
}

// TestBlackmailExposed: Alice falsely claims her data was tampered;
// the provider produces data matching the agreed digest and is
// exonerated — the §2.4 blackmail problem answered.
func TestBlackmailExposed(t *testing.T) {
	fx := newFixture(t)
	c := fx.baseCase()
	c.ProducedData = fx.produced(t) // untampered
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("verdict = %v, want claim-false\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestProviderFaultOnNoProduction: the provider cannot produce any
// data for an agreed digest.
func TestProviderFaultOnNoProduction(t *testing.T) {
	fx := newFixture(t)
	fx.d.Store.Delete("finance/records")
	c := fx.baseCase()
	c.ProducedData = fx.produced(t) // nil
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictProviderFault {
		t.Fatalf("verdict = %v, want provider-at-fault", dec.Verdict)
	}
}

// TestForgedNRODismissed: a claimant who forges the NRO digests (to
// frame the provider) is caught by signature verification.
func TestForgedNRODismissed(t *testing.T) {
	fx := newFixture(t)
	c := fx.baseCase()
	forged := *fx.up.NRO
	forgedHeader := *fx.up.NRO.Header
	forgedHeader.SetDigests([]byte("data alice never uploaded"))
	forged.Header = &forgedHeader
	c.ClaimantNRO = &forged
	c.ProducedData = fx.produced(t)
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimUnsupported {
		t.Fatalf("verdict = %v, want claim-unsupported", dec.Verdict)
	}
}

// TestForgedNRRNoAgreement: a claimant fabricating the receipt cannot
// establish an agreement.
func TestForgedNRRNoAgreement(t *testing.T) {
	fx := newFixture(t)
	c := fx.baseCase()
	forged := *fx.up.NRR
	forgedHeader := *fx.up.NRR.Header
	forgedHeader.Note = "altered"
	forged.Header = &forgedHeader
	c.ClaimantNRR = &forged
	c.RespondentNRR = nil
	c.ProducedData = fx.produced(t)
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictNoAgreement {
		t.Fatalf("verdict = %v, want no-agreement", dec.Verdict)
	}
}

// TestMissingReceiptNoAgreement: without any NRR (and no TTP statement)
// there is no storage obligation to enforce.
func TestMissingReceiptNoAgreement(t *testing.T) {
	fx := newFixture(t)
	c := fx.baseCase()
	c.ClaimantNRR = nil
	c.ProducedData = fx.produced(t)
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictNoAgreement {
		t.Fatalf("verdict = %v, want no-agreement", dec.Verdict)
	}
}

// TestAbortedTransaction: a respondent-signed abort acceptance ends
// the dispute.
func TestAbortedTransaction(t *testing.T) {
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Stall the upload, then abort it.
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	d.Client.Upload(context.Background(), conn, "txn-ab", "k", []byte("v"))
	d.Provider.SetMisbehavior(core.Misbehavior{})
	ab, err := d.Client.Abort(context.Background(), conn, "txn-ab", "peer silent")
	if err != nil || !ab.Accepted {
		t.Fatalf("abort: %+v, %v", ab, err)
	}

	nro, err := d.Client.PendingNRO("txn-ab")
	if err != nil {
		t.Fatal(err)
	}
	arb := arbitrator.NewWithKey(d.CA.Key(), d.CA.Lookup, nil)
	dec := arb.Decide(&arbitrator.Case{
		TxnID:        "txn-ab",
		ClaimantID:   deploy.ClientName,
		RespondentID: deploy.ProviderName,
		ClaimantNRO:  nro,
		AbortReceipt: ab.Receipt,
	})
	if dec.Verdict != arbitrator.VerdictAborted {
		t.Fatalf("verdict = %v, want transaction-aborted\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestProviderUnresponsiveWithTTPStatement: the TTP statement fills the
// missing-NRR gap when the provider stonewalls.
func TestProviderUnresponsiveWithTTPStatement(t *testing.T) {
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := d.DialProvider()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true, IgnoreResolve: true})
	if _, err := d.Client.Upload(context.Background(), conn, "txn-ttp", "k", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("setup: %v", err)
	}
	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := d.Client.Resolve(context.Background(), ttpConn, "txn-ttp", "no NRR")
	if err != nil || res.TTPStatement == nil {
		t.Fatalf("resolve: %+v, %v", res, err)
	}

	nro, _ := d.Client.PendingNRO("txn-ttp")
	arb := arbitrator.NewWithKey(d.CA.Key(), d.CA.Lookup, nil)
	dec := arb.Decide(&arbitrator.Case{
		TxnID:        "txn-ttp",
		ClaimantID:   deploy.ClientName,
		RespondentID: deploy.ProviderName,
		ClaimantNRO:  nro,
		TTPStatement: res.TTPStatement,
	})
	if dec.Verdict != arbitrator.VerdictProviderUnresponsive {
		t.Fatalf("verdict = %v, want provider-unresponsive\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestEvidenceFromWrongTransactionRejected: evidence for another
// transaction cannot support the claim.
func TestEvidenceFromWrongTransactionRejected(t *testing.T) {
	fx := newFixture(t)
	c := fx.baseCase()
	c.TxnID = "txn-other"
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimUnsupported {
		t.Fatalf("verdict = %v, want claim-unsupported", dec.Verdict)
	}
}

func TestVerdictStrings(t *testing.T) {
	seen := map[string]bool{}
	for v := arbitrator.VerdictProviderFault; v <= arbitrator.VerdictProviderUnresponsive; v++ {
		s := v.String()
		if seen[s] {
			t.Errorf("duplicate verdict string %q", s)
		}
		seen[s] = true
	}
}

func TestFindingsAreExplanatory(t *testing.T) {
	fx := newFixture(t)
	c := fx.baseCase()
	c.ProducedData = fx.produced(t)
	dec := fx.arb.Decide(c)
	if len(dec.Findings) < 3 {
		t.Fatalf("decision has only %d findings: %v", len(dec.Findings), dec.Findings)
	}
	joined := strings.Join(dec.Findings, "\n")
	for _, want := range []string{"claimant NRO", "NRR", "agreed digest"} {
		if !strings.Contains(joined, want) {
			t.Errorf("findings missing %q:\n%s", want, joined)
		}
	}
}

// TestDisputeAfterCertificateExpiry: evidence produced while the
// certificates were valid must remain arbitrable after they expire —
// the arbitrator validates certificates at the evidence timestamp.
func TestDisputeAfterCertificateExpiry(t *testing.T) {
	fx := newFixture(t)
	// A dispute filed two years later, long past the deployment's cert
	// window... the fixture deployment issues 10-year certs, so model
	// expiry by moving the arbitrator's clock far past NotAfter.
	farFuture := time.Now().Add(20 * 365 * 24 * time.Hour)
	lateArb := arbitrator.NewWithKey(fx.d.CA.Key(), fx.d.CA.Lookup, func() time.Time { return farFuture })
	c := fx.baseCase()
	c.ProducedData = fx.produced(t)
	dec := lateArb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("late dispute verdict = %v (findings: %v)", dec.Verdict, dec.Findings)
	}
}
