package keystore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/pki"
)

func initDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := InitScheme(dir, []string{"alice", "bob", "ttp"}, 1024, 24*time.Hour, cryptoutil.SchemeRSA); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestInitAndLoadWorld(t *testing.T) {
	dir := initDir(t)
	w, err := LoadWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := w.Names()
	if len(names) != 3 || names[0] != "alice" || names[1] != "bob" || names[2] != "ttp" {
		t.Fatalf("Names = %v", names)
	}
	// Every certificate must verify under the published CA key.
	for _, name := range names {
		cert, err := w.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := pki.VerifyCertificateWith(w.CAPublicKey(), cert, time.Now(), nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := w.Lookup("mallory"); !errors.Is(err, pki.ErrUnknownIdentity) {
		t.Errorf("unknown lookup: %v", err)
	}
}

func TestLoadIdentityRoundTrip(t *testing.T) {
	dir := initDir(t)
	id, err := LoadIdentity(dir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if id.Name != "alice" || id.Cert.Subject != "alice" {
		t.Fatalf("identity: %+v", id)
	}
	// The loaded private key must actually sign verifiably under the
	// certified public key.
	sig, err := id.Key.Signer().Sign([]byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := id.Cert.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify([]byte("probe"), sig); err != nil {
		t.Fatalf("loaded key does not match certificate: %v", err)
	}
	if _, err := LoadIdentity(dir, "nobody"); err == nil {
		t.Fatal("loading a missing identity succeeded")
	}
}

func TestEvidencePersistence(t *testing.T) {
	dir := initDir(t)
	alice, err := LoadIdentity(dir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := LoadIdentity(dir, "bob")
	if err != nil {
		t.Fatal(err)
	}
	bobPub, err := bob.Cert.Key()
	if err != nil {
		t.Fatal(err)
	}
	h := &evidence.Header{
		Kind: evidence.KindNRO, TxnID: "txn/with:odd chars", Seq: 1,
		Nonce: cryptoutil.MustNonce(), SenderID: "alice", RecipientID: "bob",
		TTPID: "ttp", Timestamp: time.Now(), ObjectKey: "k",
	}
	h.SetDigests([]byte("data"))
	ev, _, err := evidence.BuildFor(alice.Key.Signer(), bobPub, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEvidence(dir, h.TxnID, evidence.RoleOwn, ev); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEvidence(dir, h.TxnID, evidence.RoleOwn, evidence.KindNRO)
	if err != nil {
		t.Fatal(err)
	}
	alicePub, err := alice.Cert.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyAgainstDataWith(alicePub, []byte("data")); err != nil {
		t.Fatalf("persisted evidence fails verification: %v", err)
	}
	files, err := ListEvidence(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("ListEvidence = %v, %v", files, err)
	}
	if _, err := LoadEvidence(dir, "ghost", evidence.RoleOwn, evidence.KindNRO); err == nil {
		t.Fatal("loading missing evidence succeeded")
	}

	// Transaction IDs that differ only in bytes a file name cannot
	// carry must not share a file: each reads back as itself.
	ids := []string{"a/b", "a_b", "a.b", "a b", "a%2Fb"}
	for _, txn := range ids {
		h := *h
		h.TxnID = txn
		ev, _, err := evidence.BuildFor(alice.Key.Signer(), bobPub, &h)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveEvidence(dir, txn, evidence.RoleOwn, ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, txn := range ids {
		got, err := LoadEvidence(dir, txn, evidence.RoleOwn, evidence.KindNRO)
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.TxnID != txn {
			t.Errorf("evidence saved under %q reads back as %q", txn, got.Header.TxnID)
		}
		if err := got.VerifyAgainstDataWith(alicePub, []byte("data")); err != nil {
			t.Errorf("%q: persisted evidence fails verification: %v", txn, err)
		}
	}
	if files, err := ListEvidence(dir); err != nil || len(files) != 1+len(ids) {
		t.Errorf("ListEvidence = %v, %v; want %d files", files, err, 1+len(ids))
	}
}

func TestLoadWorldMissingDir(t *testing.T) {
	if _, err := LoadWorld(t.TempDir()); err == nil {
		t.Fatal("LoadWorld on empty dir succeeded")
	}
}
