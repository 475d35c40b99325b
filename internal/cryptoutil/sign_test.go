package cryptoutil

import (
	"testing"
	"testing/quick"
)

// eachScheme runs f once per registered scheme, as a subtest named
// after it.
func eachScheme(t *testing.T, f func(t *testing.T, s Scheme)) {
	t.Helper()
	for _, s := range []Scheme{SchemeRSA, SchemeEd25519} {
		t.Run(s.String(), func(t *testing.T) { f(t, s) })
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		msg := []byte("NRO evidence payload")
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := key.Public().Verify(msg, sig); err != nil {
			t.Fatalf("valid signature rejected: %v", err)
		}
	})
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		sig, err := key.Sign([]byte("original"))
		if err != nil {
			t.Fatal(err)
		}
		if err := key.Public().Verify([]byte("tampered"), sig); err == nil {
			t.Fatal("signature verified for a different message")
		}
	})
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		alice, eve := InsecureTestKeyScheme(0, s).Signer(), InsecureTestKeyScheme(1, s).Signer()
		msg := []byte("claimed to be from alice")
		sig, err := eve.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.Public().Verify(msg, sig); err == nil {
			t.Fatal("signature by eve verified under alice's key")
		}
	})
}

func TestVerifyRejectsCorruptedSignature(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		msg := []byte("msg")
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, len(sig) / 2, len(sig) - 1} {
			bad := append([]byte(nil), sig...)
			bad[i] ^= 0x80
			if err := key.Public().Verify(msg, bad); err == nil {
				t.Fatalf("signature with bit flipped at byte %d verified", i)
			}
		}
	})
}

func TestSignVerifyQuick(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		f := func(msg []byte) bool {
			sig, err := key.Sign(msg)
			if err != nil {
				return false
			}
			return key.Public().Verify(msg, sig) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

func TestPublicKeyRoundTrip(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		pub := InsecureTestKeyScheme(2, s).Signer().Public()
		parsed, err := ParseAnyPublicKey(pub.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !parsed.Equal(pub) || parsed.Scheme() != s {
			t.Fatal("public key round trip changed the key")
		}
	})
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	if _, err := ParseAnyPublicKey([]byte("not der")); err == nil {
		t.Fatal("garbage DER accepted")
	}
	// A well-formed envelope magic with the wrong amount of key material.
	if _, err := ParseAnyPublicKey(append(append([]byte(nil), ed25519PubMagic...), 1, 2, 3)); err == nil {
		t.Fatal("short ed25519 envelope accepted")
	}
}

func TestPublicKeyFingerprintStable(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		pub := InsecureTestKeyScheme(0, s).Signer().Public()
		a := pub.Fingerprint()
		if !a.Equal(pub.Fingerprint()) {
			t.Fatal("fingerprint not deterministic")
		}
		// The fingerprint names the key, not the handle: a re-parsed
		// handle on the same key reproduces it.
		parsed, err := ParseAnyPublicKey(pub.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(parsed.Fingerprint()) {
			t.Fatal("re-parsed key has a different fingerprint")
		}
		if a.Equal(InsecureTestKeyScheme(1, s).Signer().Public().Fingerprint()) {
			t.Fatal("distinct keys share a fingerprint")
		}
	})
}

func TestNonceUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		n := MustNonce()
		if len(n) != NonceSize {
			t.Fatalf("nonce length %d, want %d", len(n), NonceSize)
		}
		if seen[string(n)] {
			t.Fatal("duplicate nonce")
		}
		seen[string(n)] = true
	}
}
