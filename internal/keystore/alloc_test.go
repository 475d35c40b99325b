package keystore

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// TestWorldLookupAllocs pins the satellite fix: World caches parsed
// key handles and fingerprints at load, so steady-state lookups must
// not re-parse DER (which allocated on every inbound message before).
func TestWorldLookupAllocs(t *testing.T) {
	dir := t.TempDir()
	if err := InitScheme(dir, []string{"alice", "bob"}, 1024, time.Hour, cryptoutil.SchemeRSA); err != nil {
		t.Fatal(err)
	}
	w, err := LoadWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the lazily-computed fingerprint inside the handle once.
	if _, err := w.Fingerprint("alice"); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		key, err := w.Key("alice")
		if err != nil || key == nil {
			t.Fatal("lookup failed")
		}
		_ = key.Fingerprint()
		_ = w.CAPublicKey()
	})
	if allocs > 0 {
		t.Errorf("Key+Fingerprint+CAPublicKey allocates %.1f/op, want 0", allocs)
	}
}

// TestInitSchemeEd25519 round-trips an ed25519 state directory through
// disk: identities load, sign, and their certs verify under the CA.
func TestInitSchemeEd25519(t *testing.T) {
	dir := t.TempDir()
	if err := InitScheme(dir, []string{"alice", "bob"}, 0, time.Hour, cryptoutil.SchemeEd25519); err != nil {
		t.Fatal(err)
	}
	w, err := LoadWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.CAPublicKey().Scheme(); got != cryptoutil.SchemeEd25519 {
		t.Fatalf("CA scheme = %v, want ed25519", got)
	}
	id, err := LoadIdentity(dir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if id.Key.Scheme() != cryptoutil.SchemeEd25519 {
		t.Fatalf("identity scheme = %v", id.Key.Scheme())
	}
	sig, err := id.Key.Signer().Sign([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	aliceKey, err := w.Key("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := aliceKey.Verify([]byte("hello"), sig); err != nil {
		t.Fatalf("loaded key rejects loaded signer: %v", err)
	}
	// The directory key must equal the identity's own public half.
	if !aliceKey.Equal(id.Key.Signer().Public()) {
		t.Fatalf("directory and identity disagree on alice's key")
	}
}
