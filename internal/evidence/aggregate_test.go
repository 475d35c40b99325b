package evidence

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// buildSession signs K NRO evidence items under sender, sealed for
// recipient, and returns the opened evidence in txn order.
func buildSession(t *testing.T, scheme cryptoutil.Scheme, k int) (evs []*Evidence, txns []string, sender, recipient cryptoutil.KeyPair) {
	t.Helper()
	sender = cryptoutil.InsecureTestKeyScheme(0, scheme)
	recipient = cryptoutil.InsecureTestKeyScheme(1, scheme)
	for i := 0; i < k; i++ {
		h := &Header{
			Kind: KindNRO, TxnID: fmt.Sprintf("txn-%03d", i), Seq: uint64(i + 1),
			Nonce: cryptoutil.MustNonce(), SenderID: "alice", RecipientID: "bob", TTPID: "ttp",
			Timestamp: time.Unix(1700000000+int64(i), 0).UTC(), ObjectKey: fmt.Sprintf("obj-%d", i),
		}
		h.SetDigests([]byte(fmt.Sprintf("payload %d", i)))
		ev, sealed, err := BuildFor(sender.Signer(), recipient.Signer().Public(), h)
		if err != nil {
			t.Fatalf("BuildFor: %v", err)
		}
		opened, err := OpenWith(recipient.Signer(), sender.Signer().Public(), sealed, h)
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		// Sender copy and recipient copy must agree on the leaf digest —
		// that is what makes one root settle both sides.
		if !LeafDigest(ev).Equal(LeafDigest(opened)) {
			t.Fatalf("leaf digest differs between sender and recipient copies")
		}
		evs = append(evs, opened)
		txns = append(txns, h.TxnID)
	}
	return evs, txns, sender, recipient
}

// TestAggregateReceipt covers the settle flow: K=64 uploads settle
// with one signature, each leaf verifiable independently; forged
// leaves, substituted evidence and cross-txn proofs are rejected.
func TestAggregateReceipt(t *testing.T) {
	for _, scheme := range []cryptoutil.Scheme{cryptoutil.SchemeRSA, cryptoutil.SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			const k = 64
			evs, txns, _, provider := buildSession(t, scheme, k)
			leaves := make([]cryptoutil.Digest, k)
			for i, ev := range evs {
				leaves[i] = LeafDigest(ev)
			}
			now := time.Unix(1700001000, 0).UTC()
			r, tree, err := BuildAggregateReceipt(provider.Signer(), "sess-1", "bob", txns, leaves, now)
			if err != nil {
				t.Fatalf("BuildAggregateReceipt: %v", err)
			}
			if err := r.VerifySig(provider.Signer().Public()); err != nil {
				t.Fatalf("VerifySig: %v", err)
			}

			// Wire round-trip of the receipt.
			r2, err := DecodeAggregateReceipt(r.Encode())
			if err != nil {
				t.Fatalf("DecodeAggregateReceipt: %v", err)
			}
			if err := r2.VerifySig(provider.Signer().Public()); err != nil {
				t.Fatalf("decoded receipt signature: %v", err)
			}
			if len(r2.TxnIDs) != k || !r2.Root.Equal(r.Root) {
				t.Fatalf("receipt fields lost in round-trip")
			}

			// Every leaf verifies via its (wire round-tripped) proof.
			for i, ev := range evs {
				p, err := tree.Prove(i)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := DecodeProof(EncodeProof(p))
				if err != nil {
					t.Fatalf("proof round-trip: %v", err)
				}
				if err := r2.VerifyLeaf(ev, p2); err != nil {
					t.Fatalf("leaf %d: %v", i, err)
				}
			}

			// Forgeries: substituted evidence under a real proof.
			p17, _ := tree.Prove(17)
			forged := *evs[17]
			forged.Header = &Header{}
			*forged.Header = *evs[17].Header
			forged.Header.ObjectLen++
			if err := r2.VerifyLeaf(&forged, p17); !errors.Is(err, ErrBadLeafProof) {
				t.Errorf("forged evidence accepted: %v", err)
			}
			// Real evidence under another txn's proof.
			p3, _ := tree.Prove(3)
			if err := r2.VerifyLeaf(evs[17], p3); !errors.Is(err, ErrBadLeafProof) {
				t.Errorf("cross-txn proof accepted: %v", err)
			}
			// Tampered receipt signature.
			r3 := *r2
			r3.Sig = append([]byte(nil), r3.Sig...)
			r3.Sig[3] ^= 0x10
			if err := r3.VerifySig(provider.Signer().Public()); !errors.Is(err, ErrBadReceiptSig) {
				t.Errorf("tampered receipt sig accepted: %v", err)
			}
			// Receipt signed by someone else.
			mallory := cryptoutil.InsecureTestKeyScheme(7, scheme)
			if err := r2.VerifySig(mallory.Signer().Public()); !errors.Is(err, ErrBadReceiptSig) {
				t.Errorf("wrong signer accepted: %v", err)
			}
		})
	}
}

// TestCrossSchemeEvidence checks a full BuildFor/OpenWith round-trip
// where sender and recipient use DIFFERENT schemes — sealing follows
// the recipient's key, signing the sender's.
func TestCrossSchemeEvidence(t *testing.T) {
	sender := cryptoutil.InsecureTestKeyScheme(0, cryptoutil.SchemeEd25519)
	recipient := cryptoutil.InsecureTestKey(1) // RSA
	h := &Header{
		Kind: KindNRO, TxnID: "txn-x", Seq: 1, Nonce: cryptoutil.MustNonce(),
		SenderID: "alice", RecipientID: "bob", TTPID: "ttp",
		Timestamp: time.Unix(1700000000, 0).UTC(),
	}
	h.SetDigests([]byte("cross-scheme payload"))
	_, sealed, err := BuildFor(sender.Signer(), recipient.Signer().Public(), h)
	if err != nil {
		t.Fatalf("BuildFor: %v", err)
	}
	opened, err := OpenWith(recipient.Signer(), sender.Signer().Public(), sealed, h)
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	if err := opened.VerifyAgainstDataWith(sender.Signer().Public(), []byte("cross-scheme payload")); err != nil {
		t.Fatalf("VerifyAgainstDataWith: %v", err)
	}
}
