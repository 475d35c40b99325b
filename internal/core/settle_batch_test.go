package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/metrics"
)

// uploadSession runs K uploads on one connection and returns the txn ids.
func uploadSession(t testing.TB, d *deploy.Deployment, k int) []string {
	t.Helper()
	conn := mustDial(t, d)
	txns := make([]string, k)
	for i := range txns {
		txns[i] = fmt.Sprintf("txn-sess-%d", i)
		data := []byte(fmt.Sprintf("object %d payload", i))
		if _, err := d.Client.Upload(context.Background(), conn, txns[i], fmt.Sprintf("obj/%d", i), data); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	return txns
}

func TestSettleSession(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	txns := uploadSession(t, d, 8)
	conn := mustDial(t, d)

	signsBefore := d.ProviderCounters.Get(metrics.SignOps)
	res, err := d.Client.SettleSession(context.Background(), conn, "sess-1", txns)
	if err != nil {
		t.Fatal(err)
	}
	// The headline property: K uploads, ONE receipt signature. The
	// provider signs the receipt once plus the response evidence pair.
	if got := d.ProviderCounters.Get(metrics.SignOps) - signsBefore; got > 3 {
		t.Errorf("settle cost %d provider signatures, want one receipt + one evidence pair", got)
	}
	r := res.Receipt
	if r.SessionID != "sess-1" || r.SignerID != deploy.ProviderName {
		t.Fatalf("receipt names session %q signer %q", r.SessionID, r.SignerID)
	}
	if len(r.TxnIDs) != len(txns) {
		t.Fatalf("receipt settles %d txns, want %d", len(r.TxnIDs), len(txns))
	}

	// Every settled upload is individually provable: receipt + inclusion
	// proof + the client's own archived evidence survive an encode round
	// trip and bind together.
	for i, txn := range txns {
		proof, err := res.Proof(i)
		if err != nil {
			t.Fatal(err)
		}
		proof2, err := evidence.DecodeProof(evidence.EncodeProof(proof))
		if err != nil {
			t.Fatalf("proof %d round trip: %v", i, err)
		}
		nro, err := d.Client.Archive().ByKind(txn, evidence.RoleOwn, evidence.KindNRO)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyLeaf(nro, proof2); err != nil {
			t.Errorf("leaf %d: %v", i, err)
		}
	}

	// Forgery: evidence from one settled txn cannot prove into another
	// txn's slot.
	proof0, _ := res.Proof(0)
	nro1, _ := d.Client.Archive().ByKind(txns[1], evidence.RoleOwn, evidence.KindNRO)
	if err := r.VerifyLeaf(nro1, proof0); err == nil {
		t.Error("evidence for txn 1 accepted under txn 0's proof")
	}
}

func TestSettleSessionUnknownTxn(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	txns := uploadSession(t, d, 2)
	conn := mustDial(t, d)

	// A transaction this client never committed to cannot settle: the
	// client refuses before anything goes on the wire.
	_, err := d.Client.SettleSession(context.Background(), conn, "sess-x",
		append(append([]string(nil), txns...), "txn-never-happened"))
	if err == nil {
		t.Fatal("settle of an unknown transaction succeeded")
	}
	if !strings.Contains(err.Error(), "no archived NRO") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestSchemeEd25519Deployment runs the full protocol under the fast
// scheme: every identity (CA included) is Ed25519, so certificates,
// evidence signatures, sealing and aggregate receipts all exercise the
// non-RSA code paths end to end.
func TestSchemeEd25519Deployment(t *testing.T) {
	d, err := deploy.New(deploy.Config{
		TestKeys:        true,
		Scheme:          cryptoutil.SchemeEd25519,
		ResponseTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	txns := uploadSession(t, d, 4)
	conn := mustDial(t, d)
	res, err := d.Client.SettleSession(context.Background(), conn, "sess-ed", txns)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := res.Proof(2)
	if err != nil {
		t.Fatal(err)
	}
	nro, err := d.Client.Archive().ByKind(txns[2], evidence.RoleOwn, evidence.KindNRO)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Receipt.VerifyLeaf(nro, proof); err != nil {
		t.Error(err)
	}
	// A download still verifies the upload linkage under Ed25519.
	dres, err := d.Client.Download(context.Background(), conn, "txn-ed-d", "obj/1", txns[1])
	if err != nil {
		t.Fatal(err)
	}
	if !dres.IntegrityOK {
		t.Error("integrity link not verified under ed25519")
	}
}
