package arbitrator_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/storage"
)

// aggFixture settles a session of uploads and returns everything a
// bulk dispute needs: the aggregate receipt, the client's proof tree,
// and the archived per-upload evidence.
type aggFixture struct {
	d    *deploy.Deployment
	arb  *arbitrator.Arbitrator
	res  *core.SettleResult
	txns []string
}

func newAggFixture(t *testing.T) *aggFixture {
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

	txns := make([]string, 5)
	for i := range txns {
		txns[i] = fmt.Sprintf("txn-agg-%d", i)
		data := []byte(fmt.Sprintf("ledger page %d: total = 1000", i))
		if _, err := d.Client.Upload(context.Background(), conn, txns[i], fmt.Sprintf("ledger/%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Client.SettleSession(context.Background(), conn, "sess-agg", txns)
	if err != nil {
		t.Fatal(err)
	}
	arb := arbitrator.NewWithKey(d.CA.Key(), d.CA.Lookup, nil)
	return &aggFixture{d: d, arb: arb, res: res, txns: txns}
}

// aggCase builds a dispute over the i'th settled upload using the
// aggregate receipt instead of an individual NRR.
func (fx *aggFixture) aggCase(t *testing.T, i int) *arbitrator.Case {
	t.Helper()
	nro, err := fx.d.Client.EvidenceByKind(fx.txns[i], evidence.RoleOwn, evidence.KindNRO)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := fx.res.Proof(i)
	if err != nil {
		t.Fatal(err)
	}
	return &arbitrator.Case{
		TxnID:        fx.txns[i],
		ObjectKey:    fmt.Sprintf("ledger/%d", i),
		ClaimantID:   deploy.ClientName,
		RespondentID: deploy.ProviderName,
		ClaimantNRO:  nro,
		AggReceipt:   fx.res.Receipt,
		AggProof:     proof,
	}
}

// TestAggregateReceiptDisputeTamper: the session settled with one
// signature; when one of its uploads is later tampered in storage, the
// receipt plus an inclusion proof convicts the provider exactly as an
// individual NRR would.
func TestAggregateReceiptDisputeTamper(t *testing.T) {
	fx := newAggFixture(t)
	tam := fx.d.Store.(storage.Tamperer)
	if err := tam.Tamper("ledger/3", true, func(b []byte) []byte {
		return bytes.Replace(b, []byte("1000"), []byte("9999"), 1)
	}); err != nil {
		t.Fatal(err)
	}
	c := fx.aggCase(t, 3)
	obj, err := fx.d.Store.Get("ledger/3")
	if err != nil {
		t.Fatal(err)
	}
	c.ProducedData = obj.Data
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictProviderFault {
		t.Fatalf("verdict = %v, want provider-at-fault\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
	if dec.AgreedMD5.IsZero() {
		t.Error("agreed digest not established from aggregate receipt")
	}
}

// TestAggregateReceiptDisputeIntact: intact data plus a valid leaf
// proof exonerates the provider (the blackmail answer, bulk edition).
func TestAggregateReceiptDisputeIntact(t *testing.T) {
	fx := newAggFixture(t)
	c := fx.aggCase(t, 1)
	obj, err := fx.d.Store.Get("ledger/1")
	if err != nil {
		t.Fatal(err)
	}
	c.ProducedData = obj.Data
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictClaimFalse {
		t.Fatalf("verdict = %v, want claim-false\n%s", dec.Verdict, strings.Join(dec.Findings, "\n"))
	}
}

// TestAggregateReceiptForgedProofRejected: a proof for a different
// leaf, a truncated proof, and a receipt with a doctored root must all
// fail to establish an agreement.
func TestAggregateReceiptForgedProofRejected(t *testing.T) {
	fx := newAggFixture(t)

	// Wrong leaf: txn 2's evidence under txn 0's proof.
	c := fx.aggCase(t, 2)
	wrong, err := fx.res.Proof(0)
	if err != nil {
		t.Fatal(err)
	}
	c.AggProof = wrong
	if dec := fx.arb.Decide(c); dec.Verdict != arbitrator.VerdictNoAgreement {
		t.Fatalf("wrong-leaf proof: verdict = %v, want no-agreement", dec.Verdict)
	}

	// Doctored proof path: flip a byte in one sibling hash.
	c = fx.aggCase(t, 2)
	forged := &merkle.Proof{Index: c.AggProof.Index, LeafCount: c.AggProof.LeafCount}
	for _, s := range c.AggProof.Steps {
		forged.Steps = append(forged.Steps, merkle.ProofStep{Sibling: s.Sibling.Clone(), Left: s.Left})
	}
	forged.Steps[0].Sibling.Sum[0] ^= 0xff
	c.AggProof = forged
	dec := fx.arb.Decide(c)
	if dec.Verdict != arbitrator.VerdictNoAgreement {
		t.Fatalf("doctored proof: verdict = %v, want no-agreement", dec.Verdict)
	}
	joined := strings.Join(dec.Findings, "\n")
	if !strings.Contains(joined, "inclusion proof FAILED") {
		t.Errorf("findings do not explain the proof failure:\n%s", joined)
	}

	// Doctored receipt: a rewritten root invalidates the signature.
	c = fx.aggCase(t, 2)
	doctored := *fx.res.Receipt
	doctored.Root = doctored.Root.Clone()
	doctored.Root.Sum[0] ^= 0xff
	c.AggReceipt = &doctored
	if dec := fx.arb.Decide(c); dec.Verdict != arbitrator.VerdictNoAgreement {
		t.Fatalf("doctored receipt: verdict = %v, want no-agreement", dec.Verdict)
	}

	// Receipt signed by the wrong party.
	c = fx.aggCase(t, 2)
	misattributed := *fx.res.Receipt
	misattributed.SignerID = deploy.TTPName
	c.AggReceipt = &misattributed
	if dec := fx.arb.Decide(c); dec.Verdict != arbitrator.VerdictNoAgreement {
		t.Fatalf("misattributed receipt: verdict = %v, want no-agreement", dec.Verdict)
	}
}
