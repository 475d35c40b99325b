package evidence

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

// cast is the three parties of the tests, as handles of one scheme.
type cast struct{ alice, bob, eve cryptoutil.Signer }

func castOf(s cryptoutil.Scheme) cast {
	return cast{
		alice: cryptoutil.InsecureTestKeyScheme(30, s).Signer(),
		bob:   cryptoutil.InsecureTestKeyScheme(31, s).Signer(),
		eve:   cryptoutil.InsecureTestKeyScheme(32, s).Signer(),
	}
}

// eachScheme runs f once per registered scheme, as a subtest named
// after it, with that scheme's cast.
func eachScheme(t *testing.T, f func(t *testing.T, k cast)) {
	t.Helper()
	for _, s := range bothSchemes {
		t.Run(s.String(), func(t *testing.T) { f(t, castOf(s)) })
	}
}

func testHeader(data []byte) *Header {
	h := &Header{
		Kind:        KindNRO,
		TxnID:       "txn-0001",
		Seq:         1,
		Nonce:       cryptoutil.MustNonce(),
		SenderID:    "alice",
		RecipientID: "bob",
		TTPID:       "ttp",
		Timestamp:   time.Date(2010, 9, 13, 10, 0, 0, 0, time.UTC),
		TimeLimit:   time.Date(2010, 9, 13, 10, 5, 0, 0, time.UTC),
		ObjectKey:   "finance/q3.xls",
	}
	h.SetDigests(data)
	return h
}

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	h := testHeader([]byte("payload"))
	got, err := DecodeHeader(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), h.Encode()) {
		t.Fatal("header round trip is not canonical")
	}
	if got.Kind != KindNRO || got.TxnID != h.TxnID || got.Seq != h.Seq ||
		got.SenderID != "alice" || got.RecipientID != "bob" || got.TTPID != "ttp" ||
		!got.Timestamp.Equal(h.Timestamp) || !got.TimeLimit.Equal(h.TimeLimit) ||
		got.ObjectKey != h.ObjectKey || got.ObjectLen != 7 ||
		!got.DataMD5.Equal(h.DataMD5) || !got.DataSHA256.Equal(h.DataSHA256) {
		t.Fatalf("decoded header differs: %+v", got)
	}
}

func TestDecodeHeaderRejectsGarbage(t *testing.T) {
	if _, err := DecodeHeader([]byte("junk")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	h := testHeader([]byte("d"))
	enc := h.Encode()
	if _, err := DecodeHeader(enc[:len(enc)-3]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated: %v", err)
	}
	if _, err := DecodeHeader(append(enc, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing: %v", err)
	}
}

func TestBuildOpenRoundTrip(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		data := []byte("the stored object")
		h := testHeader(data)
		own, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OpenWith(k.bob, k.alice.Public(), sealed, h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.DataSig, own.DataSig) || !bytes.Equal(got.HeaderSig, own.HeaderSig) {
			t.Fatal("opened evidence differs from built evidence")
		}
		if err := got.VerifyAgainstDataWith(k.alice.Public(), data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenWrongRecipient(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		_, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		// Eve intercepts but cannot open: confidentiality of evidence.
		if _, err := OpenWith(k.eve, k.alice.Public(), sealed, h); err == nil {
			t.Fatal("evidence opened by non-recipient")
		}
	})
}

func TestOpenWrongSenderKey(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		_, sealed, err := BuildFor(k.eve, k.bob.Public(), h) // eve impersonates alice
		if err != nil {
			t.Fatal(err)
		}
		_, err = OpenWith(k.bob, k.alice.Public(), sealed, h)
		if !errors.Is(err, ErrBadHeaderSig) && !errors.Is(err, ErrBadDataSig) {
			t.Fatalf("err = %v, want signature failure", err)
		}
	})
}

func TestOpenHeaderMismatch(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		_, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		// The plaintext header claims a different object: the sealed copy
		// must win and the mismatch be detected.
		tampered := *h
		tampered.ObjectKey = "finance/other.xls"
		if _, err := OpenWith(k.bob, k.alice.Public(), sealed, &tampered); !errors.Is(err, ErrHeaderMismatch) {
			t.Fatalf("err = %v, want ErrHeaderMismatch", err)
		}
	})
}

func TestOpenWithoutPlainHeader(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		_, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWith(k.bob, k.alice.Public(), sealed, nil); err != nil {
			t.Fatalf("OpenWith with nil plain header: %v", err)
		}
	})
}

func TestVerifyAgainstDataDetectsTampering(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		data := []byte("ledger total = 1000")
		h := testHeader(data)
		ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		tampered := []byte("ledger total = 9999")
		if err := ev.VerifyAgainstDataWith(k.alice.Public(), tampered); !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("err = %v, want ErrDigestMismatch", err)
		}
	})
}

func TestEvidenceBitFlipsRejected(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		data := []byte("d")
		h := testHeader(data)
		ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a bit in each signature.
		badData := &Evidence{Header: h, DataSig: append([]byte(nil), ev.DataSig...), HeaderSig: ev.HeaderSig}
		badData.DataSig[0] ^= 1
		if err := badData.VerifyWith(k.alice.Public()); !errors.Is(err, ErrBadDataSig) {
			t.Fatalf("flipped DataSig: %v", err)
		}
		badHdr := &Evidence{Header: h, DataSig: ev.DataSig, HeaderSig: append([]byte(nil), ev.HeaderSig...)}
		badHdr.HeaderSig[0] ^= 1
		if err := badHdr.VerifyWith(k.alice.Public()); !errors.Is(err, ErrBadHeaderSig) {
			t.Fatalf("flipped HeaderSig: %v", err)
		}
		// Mutate a header field: the header signature must break.
		mutated := *h
		mutated.Seq++
		bad := &Evidence{Header: &mutated, DataSig: ev.DataSig, HeaderSig: ev.HeaderSig}
		if err := bad.VerifyWith(k.alice.Public()); !errors.Is(err, ErrBadHeaderSig) {
			t.Fatalf("mutated header: %v", err)
		}
	})
}

func TestEvidencePlainEncodeDecode(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("archive me"))
		ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(ev.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := got.VerifyAgainstDataWith(k.alice.Public(), []byte("archive me")); err != nil {
			t.Fatalf("decoded evidence fails verification: %v", err)
		}
	})
	if _, err := Decode([]byte("garbage")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestSealedEvidenceTamperRejected(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		_, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		sealed[len(sealed)/2] ^= 1
		if _, err := OpenWith(k.bob, k.alice.Public(), sealed, h); err == nil {
			t.Fatal("tampered sealed evidence accepted")
		}
	})
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := KindNRO; k <= KindError; k++ {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

func TestMatchesDataQuick(t *testing.T) {
	f := func(data, other []byte) bool {
		h := testHeader(data)
		if !h.MatchesData(data) {
			return false
		}
		if bytes.Equal(data, other) {
			return h.MatchesData(other)
		}
		return !h.MatchesData(other)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
