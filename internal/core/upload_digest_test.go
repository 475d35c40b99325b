package core_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/pki"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestUploadDigestChecks sends the provider NROs that Alice signed over
// digests that do not match the payload, one digest wrong at a time.
// The provider hashes the payload once per digest — SHA-256 itself, MD5
// through the store's Content-MD5 check — so every row exercises
// exactly one of those checks, or the guard that keeps a malformed MD5
// field from switching the store's check off.
func TestUploadDigestChecks(t *testing.T) {
	data := []byte("ledger: total=1000")
	rows := []struct {
		name   string
		mutate func(h *evidence.Header) // nil: an honest upload
	}{
		{"good", nil},
		{"wrong sha256, right md5", func(h *evidence.Header) { h.DataSHA256.Sum[0] ^= 1 }},
		{"right sha256, wrong md5", func(h *evidence.Header) { h.DataMD5.Sum[0] ^= 1 }},
		{"zero md5", func(h *evidence.Header) { h.DataMD5 = cryptoutil.Digest{} }},
		{"short md5", func(h *evidence.Header) { h.DataMD5.Sum = h.DataMD5.Sum[:8] }},
		{"md5 without its algorithm tag", func(h *evidence.Header) { h.DataMD5.Alg = 0 }},
		{"sha256 in the md5 slot", func(h *evidence.Header) { h.DataMD5 = h.DataSHA256.Clone() }},
	}
	stores := []struct {
		name string
		open func(t *testing.T) storage.Store
	}{
		{"mem", func(*testing.T) storage.Store { return storage.NewMem(nil) }},
		{"disk", func(t *testing.T) storage.Store {
			s, err := storage.NewDisk(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}

	ca := pki.NewAuthority("ca", cryptoutil.InsecureTestKey(0))
	now := time.Now()
	identity := func(name string, slot int) *pki.Identity {
		id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKey(slot), now.Add(-time.Hour), now.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	alice, bob := identity("alice", 1), identity("bob", 2)
	aliceKey, bobKey := alice.Key.Signer(), bob.Key.Signer()

	for _, st := range stores {
		for _, row := range rows {
			t.Run(st.name+"/"+row.name, func(t *testing.T) {
				store := st.open(t)
				journal, err := wal.Open(t.TempDir(), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer journal.Close()
				provider, err := core.NewProvider(core.WithIdentity(bob), core.WithCAPublicKey(ca.Key()),
					core.WithDirectory(ca.Lookup), core.WithStore(store), core.WithJournal(journal))
				if err != nil {
					t.Fatal(err)
				}

				h := &evidence.Header{
					Kind: evidence.KindNRO, TxnID: "txn-1", Seq: 1, Nonce: cryptoutil.MustNonce(),
					SenderID: "alice", RecipientID: "bob", TTPID: "ttp",
					Timestamp: now, TimeLimit: now.Add(time.Minute), ObjectKey: "docs/ledger",
				}
				h.SetDigests(data)
				if row.mutate != nil {
					row.mutate(h)
				}
				_, sealed, err := evidence.BuildFor(aliceKey, bobKey.Public(), h)
				if err != nil {
					t.Fatal(err)
				}
				nro := &core.Message{HeaderBytes: h.Encode(), Payload: data, Sealed: sealed}
				raw, err := provider.Handle(nro.Encode())
				if err != nil {
					t.Fatalf("Handle: %v", err)
				}

				// Whatever the answer, it is evidence: sealed for Alice and
				// signed by Bob.
				reply, err := core.DecodeMessage(raw)
				if err != nil {
					t.Fatal(err)
				}
				rh, err := reply.Header()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := evidence.OpenWith(aliceKey, bobKey.Public(), reply.Sealed, rh); err != nil {
					t.Fatalf("reply is not Bob's signed evidence: %v", err)
				}
				_, getErr := store.Get("docs/ledger")
				_, nroErr := provider.Archive().ByKind("txn-1", evidence.RolePeer, evidence.KindNRO)
				_, nrrErr := provider.Archive().ByKind("txn-1", evidence.RoleOwn, evidence.KindNRR)
				failures := provider.Counters().Get(metrics.AuthFailures)

				if row.mutate == nil {
					if rh.Kind != evidence.KindNRR || getErr != nil || nroErr != nil || nrrErr != nil ||
						failures != 0 || journal.LSN() == 0 {
						t.Fatalf("honest upload: reply %s (%q), blob %v, NRO %v, NRR %v, auth failures %d, journal LSN %d",
							rh.Kind, rh.Note, getErr, nroErr, nrrErr, failures, journal.LSN())
					}
					return
				}
				if rh.Kind != evidence.KindError || rh.Note != "data does not match NRO digests" {
					t.Fatalf("reply = %s %q, want the digest-mismatch rejection", rh.Kind, rh.Note)
				}
				if failures != 1 {
					t.Errorf("auth failures = %d, want 1", failures)
				}
				if !errors.Is(getErr, storage.ErrNotFound) {
					t.Errorf("rejected upload left a blob (Get: %v)", getErr)
				}
				if journal.LSN() != 0 {
					t.Errorf("rejected upload journaled %d record(s)", journal.LSN())
				}
				if nroErr == nil || nrrErr == nil {
					t.Errorf("rejected upload archived evidence (NRO: %v, NRR: %v)", nroErr, nrrErr)
				}
			})
		}
	}
}
